/**
 * @file
 * KernelState ties the substrate together: physical memory layout,
 * ownership map, buddy and slab allocators, cgroups and tasks. It is
 * the C++ (semantic) half of the miniature kernel; the IR half — the
 * kernel functions executed on the pipeline — is built by KernelImage
 * and driven per-syscall by the workload runner.
 */

#ifndef PERSPECTIVE_KERNEL_KSTATE_HH
#define PERSPECTIVE_KERNEL_KSTATE_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "buddy.hh"
#include "cgroup.hh"
#include "fleet.hh"
#include "ownership.hh"
#include "process.hh"
#include "sim/memory.hh"
#include "slab.hh"
#include "types.hh"

namespace perspective::kernel
{

/** kmalloc size classes (bytes), mirroring Linux's kmalloc-N caches. */
inline constexpr std::array<std::uint32_t, 10> kKmallocSizes = {
    8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};

/** Kernel configuration. */
struct KernelParams
{
    std::uint64_t numFrames = 1ull << 18; ///< 1 GiB of simulated RAM
    bool secureSlab = true; ///< Perspective's secure slab allocator
    unsigned numGlobals = 1024; ///< unknown-domain global variables
};

/** The semantic kernel. */
class KernelState
{
  public:
    explicit KernelState(sim::Memory &mem, KernelParams params = {});

    // -- contexts --------------------------------------------------------
    CgroupId createCgroup(std::string name);
    Pid createProcess(CgroupId cgroup);
    /** fork(): a new task in the parent's cgroup inheriting the
     * parent's per-task enforcement value (DEXCR semantics). */
    Pid forkProcess(Pid parent);
    /** exec(): the task keeps its enforcement value but re-syncs the
     * global floor into it — a downgraded task cannot carry the
     * weaker value into a fresh (possibly privileged) image. */
    void execProcess(Pid pid);
    void exitProcess(Pid pid);
    Task &task(Pid pid);
    const Task &task(Pid pid) const;
    DomainId domainOf(Pid pid) const;
    /** Domain of the live task running under @p asid (the leakage
     * classifier's ground-truth lookup); kDomainUnknown when none. */
    DomainId domainOfAsid(sim::Asid asid) const;
    std::size_t numTasks() const { return tasks_.size(); }

    // -- allocation ------------------------------------------------------
    /** kmalloc: slab allocation charged to @p domain. Returns VA. */
    Addr kmalloc(std::uint32_t size, DomainId domain);
    void kfree(Addr va, std::uint32_t size);

    /** Explicit allocation (mmap/page-fault): one page into the
     * task's DSV; returns its PFN. */
    std::optional<Pfn> allocUserPage(Pid pid);
    void freeUserPage(Pid pid, Pfn pfn);

    /** Slab cache serving @p size (smallest fitting class). */
    SlabCache &cacheFor(std::uint32_t size);
    unsigned classIndexFor(std::uint32_t size) const;

    // -- boot-time (unknown) regions --------------------------------------
    /** VA of unknown-provenance global variable @p i. */
    Addr globalVa(unsigned i) const;
    /** Base VA of the per-cpu area (unknown provenance). */
    Addr perCpuBase() const { return directMapVa(kPerCpuFirst); }
    unsigned numGlobals() const { return params_.numGlobals; }

    // -- accessors ---------------------------------------------------------
    OwnershipMap &ownership() { return ownership_; }
    const OwnershipMap &ownership() const { return ownership_; }
    FleetControl &fleet() { return fleet_; }
    const FleetControl &fleet() const { return fleet_; }
    /** The enforcement value @p pid actually runs under (global
     * floor OR task bits). */
    std::uint32_t
    effectiveFleetBits(Pid pid) const
    {
        return fleet_.effective(task(pid).fleetBits);
    }
    BuddyAllocator &buddy() { return buddy_; }
    CgroupRegistry &cgroups() { return cgroups_; }
    sim::Memory &memory() { return mem_; }
    const KernelParams &params() const { return params_; }
    const std::vector<std::unique_ptr<SlabCache>> &slabs() const
    {
        return kmallocCaches_;
    }

  private:
    static constexpr Pfn kGlobalsFirst = 0;   ///< 64 pages of globals
    static constexpr Pfn kPerCpuFirst = 64;   ///< 8 pages per-cpu
    static constexpr Pfn kBuddyFirst = 256;   ///< buddy-managed range

    sim::Memory &mem_;
    KernelParams params_;
    OwnershipMap ownership_;
    BuddyAllocator buddy_;
    CgroupRegistry cgroups_;
    std::vector<std::unique_ptr<SlabCache>> kmallocCaches_;
    std::unordered_map<Pid, Task> tasks_;
    Pid nextPid_ = 1;
    FleetControl fleet_;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_KSTATE_HH
