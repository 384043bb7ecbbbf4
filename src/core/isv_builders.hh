/**
 * @file
 * ISV generation via system-call interposition (Section 5.3).
 *
 * StaticIsvBuilder mirrors the radare2-based flow: identify the
 * system calls a binary can issue (by disassembling the user driver
 * for calls into kernel entry points), then walk the kernel's direct
 * call graph from those entries. Functions reachable only through
 * indirect calls are NOT included — the fundamental limitation of
 * static analysis the paper discusses.
 *
 * DynamicIsvBuilder mirrors the tracing flow: it is fed function-
 * entry events from instrumented (interpreted) runs of the workload
 * and emits a view containing exactly the functions observed,
 * including indirect-call targets.
 */

#ifndef PERSPECTIVE_CORE_ISV_BUILDERS_HH
#define PERSPECTIVE_CORE_ISV_BUILDERS_HH

#include <set>
#include <vector>

#include "isv.hh"
#include "kernel/image.hh"
#include "kernel/syscalls.hh"

namespace perspective::core
{

/** Static (binary-analysis) ISV generation. */
class StaticIsvBuilder
{
  public:
    explicit StaticIsvBuilder(const kernel::KernelImage &img)
        : img_(img)
    {
    }

    /**
     * Disassemble userspace functions of @p prog and report the set
     * of syscalls whose kernel entry points they call.
     */
    std::set<kernel::Sys>
    syscallsOfBinary(const std::vector<sim::FuncId> &user_funcs) const;

    /** Direct-call-graph closure from a set of root functions, each
     * listed once, in breadth-first order. */
    std::vector<sim::FuncId>
    closure(const std::vector<sim::FuncId> &roots) const;

    /** Build the static ISV for an application's syscall set. */
    IsvView build(const std::set<kernel::Sys> &syscalls) const;

    /** Work done by one incremental view update (latency model). */
    struct ExtendStats
    {
        std::size_t added = 0;   ///< functions newly included
        std::size_t visited = 0; ///< call-graph edges examined
    };

    /**
     * Incremental ISV recomputation for a dynamic extension (module /
     * eBPF-program load): extend @p view with everything newly
     * reachable from @p roots by a delta BFS over the static call
     * graph that never crosses a function already in the view. Cost
     * is proportional to the *new* subgraph, not the whole closure —
     * for a closure-built view this equals a full rebuild from
     * old-roots ∪ roots.
     *
     * Caveat: the traversal re-includes functions an audit previously
     * excluded if they are reachable from @p roots; callers enforcing
     * ISV++ must re-run applyAudit() on the extension's gadget set
     * (exactly what a load-time scan would do).
     */
    ExtendStats extendView(IsvView &view,
                           const std::vector<sim::FuncId> &roots) const;

  private:
    const kernel::KernelImage &img_;
};

/** Dynamic (trace-driven) ISV generation. */
class DynamicIsvBuilder
{
  public:
    explicit DynamicIsvBuilder(const kernel::KernelImage &img)
        : img_(img), seen_(img.numKernelFunctions())
    {
    }

    /** Record one function-entry event from the tracer. */
    void
    observe(sim::FuncId f)
    {
        if (f < seen_.size())
            seen_[f] = true;
    }

    /** Emit the personalized dynamic ISV. */
    IsvView build() const;

  private:
    const kernel::KernelImage &img_;
    /** Kernel-FuncId-indexed bitmap of observed functions. */
    std::vector<bool> seen_;
};

/**
 * Harden a view with audit results (Section 5.4, "Enhancing ISVs with
 * Auditing"): every function the scanner flagged is excluded,
 * yielding ISV++.
 */
void applyAudit(IsvView &view,
                const std::vector<sim::FuncId> &vulnerable);

/** @name Modeled ISV-update latency
 * Cycle cost of one incremental recomputation: a base (update syscall
 * + ISV-cache shootdown IPI) plus per-function shadow-bitmap writes
 * and per-edge call-graph walk work. Sampled into the
 * "update_latency" sweep metric by the pliability scenarios.
 * @{ */
inline constexpr sim::Cycle kIsvUpdateBase = 400;
inline constexpr sim::Cycle kIsvUpdatePerFunc = 18;
inline constexpr sim::Cycle kIsvUpdatePerEdge = 3;

inline sim::Cycle
isvUpdateLatency(const StaticIsvBuilder::ExtendStats &st)
{
    return kIsvUpdateBase +
           kIsvUpdatePerFunc * static_cast<sim::Cycle>(st.added) +
           kIsvUpdatePerEdge * static_cast<sim::Cycle>(st.visited);
}
/** @} */

} // namespace perspective::core

#endif // PERSPECTIVE_CORE_ISV_BUILDERS_HH
