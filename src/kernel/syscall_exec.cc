#include "syscall_exec.hh"

#include <iterator>
#include <stdexcept>

#include "process.hh"

namespace perspective::kernel
{

namespace
{

/** Clamp a copy length (in cache lines) to something sane. */
std::uint64_t
clampLines(std::uint64_t v, std::uint64_t dflt, std::uint64_t max)
{
    if (v == 0)
        return dflt;
    return v > max ? max : v;
}

/** Order and out-of-memory message of each TaskRegion. */
struct RegionSpec
{
    unsigned order;
    const char *oom;
};
constexpr RegionSpec kRegionSpecs[] = {
    {2, "oom: file buffer"},
    {2, "oom: socket buffer"},
    {5, "oom: big region"},
    {6, "oom: fd region"},
};
static_assert(std::size(kRegionSpecs) ==
              static_cast<std::size_t>(TaskRegion::Count));

} // namespace

Addr
SyscallExecutor::region(Task &t, TaskRegion which)
{
    auto &slot = t.regions[static_cast<unsigned>(which)];
    if (!slot) {
        const RegionSpec &spec =
            kRegionSpecs[static_cast<unsigned>(which)];
        auto pfn = ks_.buddy().allocPages(spec.order, t.domain);
        if (!pfn)
            throw std::runtime_error(spec.oom);
        slot = OwnedBlock{*pfn, spec.order};
        if (which == TaskRegion::FdRegion) {
            // Each 192-byte file struct starts with a pointer to
            // another struct in the window (ops/inode links) for the
            // poll scan's pointer chase.
            Addr base = directMapVa(*pfn);
            for (unsigned i = 0; i < 512; ++i) {
                ks_.memory().write(base + Addr{i} * 192,
                                   base + ((i * 131 + 7) % 170) * 192);
            }
        }
    }
    return directMapVa(slot->pfn);
}

PreparedSyscall
SyscallExecutor::prepare(Pid pid, const SyscallInvocation &inv)
{
    static_assert(reg::kCtx + PreparedSyscall::kNumRegs - 1 ==
                  reg::kPerCpu);
    Task &t = ks_.task(pid);
    DomainId dom = t.domain;
    PreparedSyscall p;
    // Each register has one slot: a syscall-specific value overwrites
    // the baseline below.
    auto set = [&p](unsigned r, std::uint64_t v) {
        p.regs[r - reg::kCtx] = {r, v};
    };

    // Baseline register conventions for every syscall.
    set(reg::kCtx, t.ctxVa);
    set(reg::kPerCpu, ks_.perCpuBase());
    set(reg::kFault, 0);
    set(reg::kVariant, 0);
    set(reg::kArg0, inv.arg0);
    set(reg::kArg1, inv.arg1);
    set(reg::kArg2, inv.arg2);

    pending_ = {};

    switch (inv.sys) {
      case Sys::Mmap:
      case Sys::Brk: {
        unsigned order =
            inv.arg0 > 5 ? 5 : static_cast<unsigned>(inv.arg0);
        auto pfn = ks_.buddy().allocPages(order, dom);
        if (!pfn)
            throw std::runtime_error("oom: mmap");
        t.userPages.push_back(*pfn); // freed with the process
        // Record the order alongside by pushing each frame.
        for (std::uint64_t i = 1; i < (1ull << order); ++i)
            t.userPages.push_back(*pfn + i);
        set(reg::kArg1, 1ull << order);       // pages to populate
        set(reg::kArg2, directMapVa(*pfn));   // region base
        break;
      }
      case Sys::PageFault: {
        auto pfn = ks_.buddy().allocPages(0, dom);
        if (!pfn)
            throw std::runtime_error("oom: page fault");
        pending_.page = *pfn;
        set(reg::kArg1, 1);
        set(reg::kArg2, directMapVa(*pfn));
        break;
      }
      case Sys::Munmap: {
        if (!t.userPages.empty()) {
            ks_.buddy().freePages(t.userPages.back(), 0);
            t.userPages.pop_back();
        }
        break;
      }
      case Sys::Fork:
      case Sys::ThreadCreate: {
        pending_.child = ks_.createProcess(t.cgroup);
        Task &child = ks_.task(*pending_.child);
        set(reg::kArg0, t.ctxVa);       // copy source
        set(reg::kArg1, 4);             // pages
        set(reg::kArg2, child.ctxVa);   // copy destination
        break;
      }
      case Sys::BigFork: {
        pending_.child = ks_.createProcess(t.cgroup);
        Addr parent_region = region(t, TaskRegion::BigRegion);
        auto child_region = ks_.buddy().allocPages(
            5, ks_.task(*pending_.child).domain);
        if (!child_region)
            throw std::runtime_error("oom: big fork");
        pending_.childRegion = *child_region;
        set(reg::kArg0, parent_region);
        set(reg::kArg1, 32);
        set(reg::kArg2, directMapVa(*child_region));
        break;
      }
      case Sys::Read:
      case Sys::Write:
      case Sys::Fsync:
        set(reg::kArg1, clampLines(inv.arg1, 16, 64));
        set(reg::kArg2, region(t, TaskRegion::FileBuf));
        break;
      case Sys::BigRead:
      case Sys::BigWrite:
        set(reg::kArg1, clampLines(inv.arg1 ? inv.arg1 : 256, 256,
                                   256));
        set(reg::kArg2, region(t, TaskRegion::FileBuf));
        break;
      case Sys::Open: {
        // Path walk depth; the file object lives until close().
        set(reg::kArg2, inv.arg2 ? inv.arg2 : 3);
        Addr obj = ks_.kmalloc(512, dom);
        t.openObjects.emplace_back(obj, 512);
        break;
      }
      case Sys::Stat: {
        // Path walk depth; the dentry reference is transient.
        set(reg::kArg2, inv.arg2 ? inv.arg2 : 3);
        pending_.kmalloc.emplace(ks_.kmalloc(512, dom), 512);
        break;
      }
      case Sys::Close:
      case Sys::Shutdown:
        if (!t.openObjects.empty()) {
            auto [va, sz] = t.openObjects.back();
            ks_.kfree(va, sz);
            t.openObjects.pop_back();
        }
        break;
      case Sys::Ioctl:
        // Benign index into the driver's table (bounds value is 16).
        set(reg::kArg0, inv.arg0 % 16);
        break;
      case Sys::Select:
      case Sys::Poll:
      case Sys::EpollWait: {
        set(reg::kArg1, clampLines(inv.arg1, 64, 512)); // nfds
        // Per-fd file structs.
        set(reg::kArg2, region(t, TaskRegion::FdRegion));
        // Transient metadata allocation (Figure 5.2's poll example).
        pending_.kmalloc.emplace(ks_.kmalloc(256, dom), 256);
        break;
      }
      case Sys::EpollCreate: {
        Addr obj = ks_.kmalloc(512, dom);
        t.openObjects.emplace_back(obj, 512);
        break;
      }
      case Sys::Send:
      case Sys::SendTo:
      case Sys::Recv:
      case Sys::RecvFrom: {
        set(reg::kArg1, clampLines(inv.arg1, 16, 64));
        set(reg::kArg2, region(t, TaskRegion::SockBuf));
        // skb allocation, freed on completion.
        pending_.kmalloc.emplace(ks_.kmalloc(2048, dom), 2048);
        break;
      }
      case Sys::Socket: {
        Addr obj = ks_.kmalloc(1024, dom);
        t.openObjects.emplace_back(obj, 1024);
        break;
      }
      default:
        break;
    }
    return p;
}

void
SyscallExecutor::finish(Pid pid, const SyscallInvocation &inv)
{
    (void)pid;
    (void)inv;
    if (pending_.kmalloc)
        ks_.kfree(pending_.kmalloc->first, pending_.kmalloc->second);
    if (pending_.childRegion)
        ks_.buddy().freePages(*pending_.childRegion, 5);
    if (pending_.child) {
        // The forked child exits immediately in our workloads.
        ks_.exitProcess(*pending_.child);
    }
    if (pending_.page) {
        // The faulted page stays mapped only transiently in the
        // microbenchmark loop; release it to keep memory bounded.
        ks_.buddy().freePages(*pending_.page, 0);
    }
    pending_ = {};
}

} // namespace perspective::kernel
