/**
 * @file
 * Baseline defense schemes evaluated against Perspective (Chapter 7):
 *
 *  - FENCE: delay every speculative load until it reaches its
 *    Visibility Point (all prior branches resolved).
 *  - DOM (Delay-on-Miss): speculative loads that hit in the L1D may
 *    proceed; misses are delayed until non-speculative.
 *  - STT (Speculative Taint Tracking): only transmitters whose address
 *    depends on speculatively-loaded data are delayed.
 *  - SPOT: deployed Linux software spot mitigations (KPTI + retpoline)
 *    — no speculation blocking, but kernel entry/exit pays the page-
 *    table switch and indirect calls lose BTB prediction.
 */

#ifndef PERSPECTIVE_DEFENSES_SCHEMES_HH
#define PERSPECTIVE_DEFENSES_SCHEMES_HH

#include "sim/policy.hh"

namespace perspective::defenses
{

/** Hardware-only: fence all speculative loads (kernel and user). */
class FencePolicy : public sim::SpeculationPolicy
{
  public:
    sim::Verdict
    gateLoad(const sim::SpecContext &ctx) override
    {
        if (!ctx.speculative)
            return {};
        // The verdict only flips at the Visibility Point — the
        // always-implicit speculation-horizon wake covers it.
        return {sim::Gate::Block, sim::GateWake::untilInputs()};
    }

    const char *name() const override { return "fence"; }
};

/** Delay-on-Miss [Sakalis et al., ISCA'19]. */
class DomPolicy : public sim::SpeculationPolicy
{
  public:
    sim::Verdict
    gateLoad(const sim::SpecContext &ctx) override
    {
        if (!ctx.speculative || ctx.l1dHit())
            return {};
        // Verdict reads l1dHit(): re-evaluate when the L1D's content
        // changes (a fill by an older store/load can turn the miss
        // into a hit) or at the Visibility Point.
        sim::Verdict v{sim::Gate::Block, sim::GateWake::untilInputs()};
        v.wake.depend(ctx.l1dContentGen);
        return v;
    }

    const char *name() const override { return "dom"; }
};

/** Speculative Taint Tracking [Yu et al., MICRO'19]. */
class SttPolicy : public sim::SpeculationPolicy
{
  public:
    sim::Verdict
    gateLoad(const sim::SpecContext &ctx) override
    {
        if (!ctx.speculative || !ctx.tainted())
            return {};
        // Taint only clears when the producing load stops being
        // speculative, i.e. when the speculation horizon advances —
        // already an implicit wake source.
        return {sim::Gate::Block, sim::GateWake::untilInputs()};
    }

    const char *name() const override { return "stt"; }
};

/**
 * Deployed Linux spot mitigations: KPTI (user/kernel page-table switch
 * on every transition) and retpoline (indirect calls never consult the
 * BTB). These are "spot" fixes for Meltdown and Spectre-v2 only: they
 * do not block Spectre-v1-style speculative data access.
 */
class SpotMitigationPolicy : public sim::SpeculationPolicy
{
  public:
    /**
     * @param kpti_cycles CR3 switch + trampoline cost per transition.
     * @param use_retpoline disable indirect-branch prediction.
     */
    explicit SpotMitigationPolicy(sim::Cycle kpti_cycles = 10,
                                  bool use_retpoline = true)
        : kptiCycles_(kpti_cycles), retpoline_(use_retpoline)
    {
    }

    sim::Verdict
    gateLoad(const sim::SpecContext &) override
    {
        return {};
    }

    sim::Cycle kernelEntryCost() const override { return kptiCycles_; }
    sim::Cycle kernelExitCost() const override { return kptiCycles_; }
    bool retpoline() const override { return retpoline_; }

    const char *name() const override { return "spot"; }

  private:
    sim::Cycle kptiCycles_;
    bool retpoline_;
};

/**
 * InvisiSpec-style invisible speculation [Yan et al., MICRO'18]:
 * speculative loads execute into a shadow buffer without disturbing
 * the cache; surviving loads expose their line at commit. Cache-based
 * covert channels see nothing from squashed execution, at the cost of
 * losing speculative warm-up (and, on real hardware, an expose/
 * validate traffic cost this model approximates by the lost fills).
 */
class InvisiSpecPolicy : public sim::SpeculationPolicy
{
  public:
    sim::Verdict
    gateLoad(const sim::SpecContext &ctx) override
    {
        if (!ctx.speculative)
            return {};
        if (stats_)
            invisibleLoads_.inc();
        return {sim::Gate::AllowInvisible, {}};
    }

    void
    setStats(sim::StatSet *stats) override
    {
        SpeculationPolicy::setStats(stats);
        invisibleLoads_ =
            sim::LazyCounter(stats, "invisispec.invisible_loads");
    }

    const char *name() const override { return "invisispec"; }

  private:
    sim::LazyCounter invisibleLoads_;
};

/**
 * SpecCFI/CET-style speculative control-flow integrity (Chapter 10).
 * A hardware shadow stack protects returns. Coarse CFI labels make
 * every kernel function entry a legal indirect target, so they never
 * reject a prediction and are not modeled: control flow can still be
 * steered to *any* function's gadget, and speculative data access
 * (v1) is untouched. This is the baseline Perspective's ISVs improve
 * on: views are per-application, not kernel-wide.
 */
class SpecCfiPolicy : public sim::SpeculationPolicy
{
  public:
    sim::Verdict
    gateLoad(const sim::SpecContext &) override
    {
        return {};
    }

    bool shadowStack() const override { return true; }

    const char *name() const override { return "spec-cfi"; }
};

} // namespace perspective::defenses

#endif // PERSPECTIVE_DEFENSES_SCHEMES_HH
