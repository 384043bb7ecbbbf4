/**
 * @file
 * Task (process) state: kernel-side resources a process owns and the
 * register conventions used when its syscalls run on the pipeline.
 */

#ifndef PERSPECTIVE_KERNEL_PROCESS_HH
#define PERSPECTIVE_KERNEL_PROCESS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "types.hh"

namespace perspective::kernel
{

/**
 * Register conventions shared between workload drivers and generated
 * kernel function bodies.
 */
namespace reg
{
inline constexpr sim::RegId kCtx = 10;    ///< process kernel-data base
inline constexpr sim::RegId kArg0 = 11;
inline constexpr sim::RegId kArg1 = 12;
inline constexpr sim::RegId kArg2 = 13;
inline constexpr sim::RegId kFault = 14;  ///< error-injection knob
inline constexpr sim::RegId kVariant = 15;///< path-variant knob
inline constexpr sim::RegId kPerCpu = 16; ///< per-cpu area base
inline constexpr sim::RegId kRet = 9;     ///< syscall return value
} // namespace reg

/** Long-lived kernel regions a task's syscalls create at first use
 * (the buffers SyscallExecutor hands the IR handlers). */
enum class TaskRegion : unsigned
{
    FileBuf,   ///< 4-page file buffer
    SockBuf,   ///< 4-page socket buffer
    BigRegion, ///< 32-page data region (big-fork's copy source)
    FdRegion,  ///< 64-page fd/file-struct region (the poll scans)
    Count
};

/** A buddy block a task owns: its first frame and its order. */
struct OwnedBlock
{
    Pfn pfn = 0;
    unsigned order = 0;
};

/** One task. All addresses are direct-map VAs. */
struct Task
{
    Pid pid = 0;
    CgroupId cgroup = 0;
    DomainId domain = kDomainUnknown;
    sim::Asid asid = 0;

    /** Context block: 4 pages of per-task kernel data (task struct,
     * fd table, cred, ...) that generated bodies address via r10. */
    Addr ctxVa = 0;
    Pfn ctxPfn = 0;

    /** Kernel stack (vmalloc-style, tracked into the DSV). */
    Addr stackTopVa = 0;
    Pfn stackPfn = 0;

    /** Pages explicitly mapped by the process (mmap/page faults). */
    std::vector<Pfn> userPages;

    /** Live kmalloc'd objects (address, size-class index). */
    std::vector<std::pair<Addr, unsigned>> slabObjects;

    /** Lazily created regions, indexed by TaskRegion. */
    std::array<std::optional<OwnedBlock>,
               static_cast<unsigned>(TaskRegion::Count)>
        regions;

    /** Open file/socket slab objects, closed last-opened first:
     * (address, size in bytes). */
    std::vector<std::pair<Addr, std::uint32_t>> openObjects;

    /** Per-task enforcement aspects (fleet.hh bits) — the task half
     * of the DEXCR-style value; the kernel runs the task under
     * FleetControl::effective(fleetBits). Inherited across fork and
     * re-synced with the global floor on exec. */
    std::uint32_t fleetBits = 0;

    bool alive = true;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_PROCESS_HH
