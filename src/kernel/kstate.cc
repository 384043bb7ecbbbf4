#include "kstate.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace perspective::kernel
{

KernelState::KernelState(sim::Memory &mem, KernelParams params)
    : mem_(mem),
      params_(params),
      ownership_(params.numFrames),
      buddy_(ownership_, kBuddyFirst, params.numFrames - kBuddyFirst)
{
    // Boot regions keep unknown provenance: globals and per-cpu areas
    // are exactly the allocations Perspective cannot attribute to a
    // context (Section 6.1, "Resolving Unknown Allocations").
    ownership_.assignRange(kGlobalsFirst, 64, kDomainUnknown);
    ownership_.assignRange(kPerCpuFirst, 8, kDomainUnknown);
    // Rodata (fops/proto-ops tables): replicated per process by
    // Perspective's OS support, hence part of every DSV.
    ownership_.assignRange(72, 8, kDomainReplicated);

    for (std::uint32_t size : kKmallocSizes) {
        kmallocCaches_.push_back(std::make_unique<SlabCache>(
            "kmalloc-" + std::to_string(size), size, buddy_,
            params_.secureSlab));
    }
}

CgroupId
KernelState::createCgroup(std::string name)
{
    return cgroups_.create(std::move(name));
}

Pid
KernelState::createProcess(CgroupId cgroup)
{
    Task t;
    t.pid = nextPid_++;
    t.cgroup = cgroup;
    t.domain = cgroups_.domainOf(cgroup);
    t.asid = static_cast<sim::Asid>(t.pid);

    // Context block: 4 pages of per-task kernel data.
    auto ctx = buddy_.allocPages(2, t.domain);
    if (!ctx)
        throw std::runtime_error("out of memory: context block");
    t.ctxPfn = *ctx;
    t.ctxVa = directMapVa(*ctx);

    // Kernel stack: 4 pages, vmalloc-style, tracked into the DSV.
    auto stack = buddy_.allocPages(2, t.domain);
    if (!stack)
        throw std::runtime_error("out of memory: kernel stack");
    t.stackPfn = *stack;
    t.stackTopVa = directMapVa(*stack) + 4 * sim::kPageSize - 8;

    // Pointer table at ctx+0x2800: kernel objects reference each
    // other (lists, ops pointers); generated bodies chase these.
    for (unsigned i = 0; i < 256; ++i) {
        mem_.write(t.ctxVa + 0x2800 + Addr{i} * 8,
                   t.ctxVa + ((i * 37) % 255) * 8);
    }

    // Representative implicit allocations every task owns: the task
    // struct and a standing population of dentries, inodes, vmas and
    // buffers. Real caches keep thousands of long-lived objects per
    // context, which is why transient allocations almost never leave
    // a slab page empty (Section 9.2's domain-reassignment rates).
    t.slabObjects.emplace_back(kmalloc(1024, t.domain),
                               classIndexFor(1024)); // task_struct
    t.slabObjects.emplace_back(kmalloc(512, t.domain),
                               classIndexFor(512)); // files_struct
    t.slabObjects.emplace_back(kmalloc(256, t.domain),
                               classIndexFor(256)); // cred
    for (int i = 0; i < 24; ++i) {
        t.slabObjects.emplace_back(kmalloc(256, t.domain),
                                   classIndexFor(256)); // dentries
    }
    for (int i = 0; i < 12; ++i) {
        t.slabObjects.emplace_back(kmalloc(512, t.domain),
                                   classIndexFor(512)); // inodes
    }
    for (int i = 0; i < 7; ++i) {
        // Odd count: the 2-slot 2048-byte class keeps a partial page
        // so transient skbs collocate instead of churning pages.
        t.slabObjects.emplace_back(kmalloc(2048, t.domain),
                                   classIndexFor(2048)); // skb bufs
    }

    Pid pid = t.pid;
    tasks_.emplace(pid, std::move(t));
    return pid;
}

Pid
KernelState::forkProcess(Pid parent)
{
    const Task &p = task(parent);
    std::uint32_t inherited = p.fleetBits;
    Pid child = createProcess(p.cgroup);
    task(child).fleetBits = inherited;
    return child;
}

void
KernelState::execProcess(Pid pid)
{
    // The fresh image starts from the task's inherited value with the
    // current global floor OR'd in: a task that downgraded itself
    // cannot exec its way out of fleet-wide enforcement.
    Task &t = task(pid);
    t.fleetBits = fleet_.effective(t.fleetBits);
}

void
KernelState::exitProcess(Pid pid)
{
    Task &t = task(pid);
    for (auto [va, cls] : t.slabObjects)
        kmallocCaches_[cls]->free(va);
    t.slabObjects.clear();
    for (auto [va, size] : t.openObjects)
        kfree(va, size);
    for (const auto &r : t.regions)
        if (r)
            buddy_.freePages(r->pfn, r->order);
    for (Pfn pfn : t.userPages)
        buddy_.freePages(pfn, 0);
    t.userPages.clear();
    buddy_.freePages(t.ctxPfn, 2);
    buddy_.freePages(t.stackPfn, 2);
    t.alive = false;
    tasks_.erase(pid);
}

Task &
KernelState::task(Pid pid)
{
    auto it = tasks_.find(pid);
    if (it == tasks_.end())
        throw std::runtime_error("no such task");
    return it->second;
}

const Task &
KernelState::task(Pid pid) const
{
    auto it = tasks_.find(pid);
    if (it == tasks_.end())
        throw std::runtime_error("no such task");
    return it->second;
}

DomainId
KernelState::domainOf(Pid pid) const
{
    return task(pid).domain;
}

DomainId
KernelState::domainOfAsid(sim::Asid asid) const
{
    for (const auto &[pid, t] : tasks_) {
        if (t.alive && t.asid == asid)
            return t.domain;
    }
    return kDomainUnknown;
}

unsigned
KernelState::classIndexFor(std::uint32_t size) const
{
    for (unsigned i = 0; i < kKmallocSizes.size(); ++i) {
        if (kKmallocSizes[i] >= size)
            return i;
    }
    throw std::runtime_error("kmalloc size too large");
}

Addr
KernelState::kmalloc(std::uint32_t size, DomainId domain)
{
    Addr va = kmallocCaches_[classIndexFor(size)]->alloc(domain);
    if (va == 0)
        throw std::runtime_error("kmalloc: out of memory");
    return va;
}

void
KernelState::kfree(Addr va, std::uint32_t size)
{
    kmallocCaches_[classIndexFor(size)]->free(va);
}

SlabCache &
KernelState::cacheFor(std::uint32_t size)
{
    return *kmallocCaches_[classIndexFor(size)];
}

std::optional<Pfn>
KernelState::allocUserPage(Pid pid)
{
    Task &t = task(pid);
    auto pfn = buddy_.allocPages(0, t.domain);
    if (pfn)
        t.userPages.push_back(*pfn);
    return pfn;
}

void
KernelState::freeUserPage(Pid pid, Pfn pfn)
{
    Task &t = task(pid);
    auto it = std::find(t.userPages.begin(), t.userPages.end(), pfn);
    if (it != t.userPages.end()) {
        *it = t.userPages.back();
        t.userPages.pop_back();
    }
    buddy_.freePages(pfn, 0);
}

Addr
KernelState::globalVa(unsigned i) const
{
    assert(i < params_.numGlobals);
    // Spread globals over the 64 boot pages, 256 B apart.
    return bootGlobalVa(i);
}

} // namespace perspective::kernel
