/**
 * @file
 * Architectural interpreter for the micro-op IR. Executes exactly the
 * committed-path semantics of the pipeline (no speculation, no
 * timing) and reports which functions run. It is the engine behind:
 *
 *  - the ftrace-style tracer that builds dynamic ISVs (Section 5.3),
 *  - the Kasper/Syzkaller-style fuzzing loop of the gadget scanner,
 *  - the reference the pipeline is differentially tested against.
 *
 * It steps through the same core as the pipeline's functional
 * sampling phases (sim/functional.hh); the call stack persists
 * across run() invocations so steady-state tracing allocates nothing.
 */

#ifndef PERSPECTIVE_KERNEL_INTERP_HH
#define PERSPECTIVE_KERNEL_INTERP_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/functional.hh"
#include "types.hh"

namespace perspective::kernel
{

/** Architectural executor over a Program. */
class Interpreter
{
  public:
    Interpreter(const sim::Program &prog, sim::Memory &mem)
        : prog_(prog), mem_(mem)
    {
    }

    std::uint64_t regValue(unsigned r) const { return regs_[r]; }
    void setReg(unsigned r, std::uint64_t v) { regs_[r] = v; }

    /** When set, stores are discarded (fuzzing must not corrupt the
     * semantic kernel state). */
    void setDryStores(bool dry) { dryStores_ = dry; }

    /** Restore the freshly-constructed architectural state (all
     * registers zero, stores live) so one long-lived interpreter can
     * replace a construct-per-invocation pattern without behavioral
     * difference. */
    void
    reset()
    {
        regs_.fill(0);
        dryStores_ = false;
    }

    struct Result
    {
        std::uint64_t uops = 0;
        bool completed = false; ///< false when maxUops was hit
    };

    /**
     * Execute @p entry until its final return. @p on_func (optional)
     * fires on entry to every function, including @p entry itself.
     */
    Result run(sim::FuncId entry, std::uint64_t max_uops = 1'000'000,
               const std::function<void(sim::FuncId)> &on_func = {});

  private:
    const sim::Program &prog_;
    sim::Memory &mem_;
    sim::RegFile regs_{};
    bool dryStores_ = false;

    /** A return point: (caller, index of the op after the call). */
    struct Frame
    {
        sim::FuncId func;
        std::uint32_t idx;
    };
    /** The hook set run() steps the core with (interp.cc). */
    struct TraceHooks;
    /** Persistent call stack: cleared, never reallocated, per run. */
    std::vector<Frame> stack_;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_INTERP_HH
