/**
 * @file
 * SyscallExecutor: the semantic half of syscall execution.
 *
 * Each modeled syscall is executed in three steps by workload runners
 * and tracers alike:
 *
 *   1. prepare(): perform the kernel's *semantic* work (allocate
 *      pages/slab objects, create processes, update ownership) and
 *      compute the register file the IR handler expects;
 *   2. run the syscall's IR entry function (on the pipeline for
 *      timing/security, or on the interpreter for tracing);
 *   3. finish(): release transient resources (exit forked children,
 *      free transient buffers).
 *
 * Keeping the semantics in C++ while the memory traffic runs as IR
 * means allocation-heavy syscalls mechanically produce the cold-DSV
 * accesses the paper attributes big-fork/page-fault overheads to.
 */

#ifndef PERSPECTIVE_KERNEL_SYSCALL_EXEC_HH
#define PERSPECTIVE_KERNEL_SYSCALL_EXEC_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "image.hh"
#include "kstate.hh"
#include "syscalls.hh"

namespace perspective::kernel
{

/** One syscall request from a workload. */
struct SyscallInvocation
{
    Sys sys = Sys::Getpid;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
};

/** Register assignments to apply before running the IR handler. */
struct PreparedSyscall
{
    std::vector<std::pair<unsigned, std::uint64_t>> regs;
};

/** Executes syscall semantics against the KernelState. */
class SyscallExecutor
{
  public:
    SyscallExecutor(KernelState &ks, KernelImage &img)
        : ks_(ks), img_(img)
    {
    }

    /** Step 1: semantic effects + register setup for @p pid. */
    PreparedSyscall prepare(Pid pid, const SyscallInvocation &inv);

    /** Step 3: release transient resources of the invocation. */
    void finish(Pid pid, const SyscallInvocation &inv);

    /** Drop all lazily-created per-task regions for @p pid (call
     * before exiting the process). */
    void releaseTask(Pid pid);

    KernelState &kernelState() { return ks_; }
    KernelImage &image() { return img_; }

  private:
    /** Lazily-created long-lived regions per task. */
    struct TaskExtra
    {
        Pfn fileBufPfn = 0;  ///< 4-page file buffer (order 2)
        Pfn sockBufPfn = 0;  ///< 4-page socket buffer (order 2)
        Pfn bigRegionPfn = 0;///< 32-page data region (order 5)
        Pfn fdRegionPfn = 0; ///< 64-page fd/file-struct region
        bool hasFileBuf = false;
        bool hasSockBuf = false;
        bool hasBigRegion = false;
        bool hasFdRegion = false;
        /** Open file/socket slab objects: (address, size class). */
        std::vector<std::pair<Addr, std::uint32_t>> openObjects;
    };

    TaskExtra &extra(Pid pid) { return extra_[pid]; }
    Addr fileBuf(Pid pid);
    Addr sockBuf(Pid pid);
    Addr bigRegion(Pid pid);
    Addr fdRegion(Pid pid);

    KernelState &ks_;
    KernelImage &img_;
    std::unordered_map<Pid, TaskExtra> extra_;

    // Transient state between prepare() and finish().
    Pid pendingChild_ = 0;
    Addr pendingKmalloc_ = 0;
    std::uint32_t pendingKmallocSize_ = 0;
    Pfn pendingChildRegion_ = 0;
    bool pendingChildRegionValid_ = false;
    Pfn pendingPage_ = 0;
    bool pendingPageValid_ = false;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_SYSCALL_EXEC_HH
