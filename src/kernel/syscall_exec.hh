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

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

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

/** Register assignments to apply before running the IR handler: one
 * (register, value) slot for each of r10-r16, in register order. */
struct PreparedSyscall
{
    static constexpr unsigned kNumRegs = 7;
    std::array<std::pair<unsigned, std::uint64_t>, kNumRegs> regs;
};

/**
 * Executes syscall semantics against the KernelState. It keeps no
 * per-task state: a task's long-lived regions and open objects live
 * in its kernel::Task and are freed by KernelState::exitProcess.
 */
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

    KernelState &kernelState() { return ks_; }
    KernelImage &image() { return img_; }

  private:
    /** @p t's region @p which, allocated at first use. */
    Addr region(Task &t, TaskRegion which);

    KernelState &ks_;
    KernelImage &img_;

    /** Transient resources between prepare() and finish(). */
    struct Pending
    {
        std::optional<Pid> child;       ///< forked child, exits in finish
        std::optional<Pfn> childRegion; ///< big-fork copy, order 5
        std::optional<Pfn> page;        ///< faulted page
        /** Transient slab object: (address, size in bytes). */
        std::optional<std::pair<Addr, std::uint32_t>> kmalloc;
    };
    Pending pending_;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_SYSCALL_EXEC_HH
