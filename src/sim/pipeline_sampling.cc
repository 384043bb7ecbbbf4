/**
 * @file
 * Sampled simulation's functional half (DESIGN §5.8): the phase
 * controller that runs functional skip -> functional warm ->
 * detailed window periods, and the hooks the two functional phases
 * step the architectural core (functional.hh) with. Detailed windows
 * run on the ordinary cycle loop in pipeline.cc.
 */

#include "pipeline.hh"

#include "functional.hh"

namespace perspective::sim
{

namespace
{

/** splitmix64: mixes the sampling seed into the first-skip jitter. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

void
Pipeline::samplingStep(SpeculationPolicy &pol)
{
    // Called at the quiescent engagement point in sampled mode
    // (DESIGN §5.8). The phase machine anchors on the cumulative
    // committed-micro-op count so phases span run() boundaries; a
    // measured phase opens with a detailed window (Experiment calls
    // resetSampling at its warmup boundary), guaranteeing even short
    // streams contribute at least one observation, and the first skip
    // takes a seed-derived jitter so window alignment varies across
    // seeds while the period — the systematic-sampling invariant —
    // stays constant afterwards.
    const SamplingParams &sp = params_.sampling;
    if (!sampleInit_) {
        sampleInit_ = true;
        samplePhase_ = SamplePhase::Detailed;
        std::uint64_t committed = ctrCommitted_.value();
        sampleWindowStartInsts_ = committed;
        sampleWindowStartCycle_ = now_;
        samplePhaseEnd_ =
            sp.windowInsts == SamplingParams::kInfiniteWindow
                ? SamplingParams::kInfiniteWindow
                : committed + sp.windowInsts;
    }
    for (;;) {
        std::uint64_t committed = ctrCommitted_.value();
        if (committed < samplePhaseEnd_) {
            if (samplePhase_ == SamplePhase::Detailed)
                return; // the detailed loop runs the window
            if (samplePhase_ == SamplePhase::Warm)
                functionalAdvance<true>(samplePhaseEnd_ - committed, pol);
            else
                functionalAdvance<false>(samplePhaseEnd_ - committed, pol);
            if (halted_ || fetch_.halted)
                return;
            continue;
        }
        // Phase boundary (the detailed window may overshoot it: the
        // machine only re-engages at quiescent points, and windows
        // record their *actual* cycle and instruction counts).
        std::uint64_t skipBase =
            sp.periodInsts > sp.windowInsts + sp.warmingInsts
                ? sp.periodInsts - sp.windowInsts - sp.warmingInsts
                : 0;
        switch (samplePhase_) {
          case SamplePhase::Detailed: {
            sampler_.addWindow(now_ - sampleWindowStartCycle_,
                               committed - sampleWindowStartInsts_);
            std::uint64_t skip = skipBase;
            if (sampleFirstSkip_) {
                sampleFirstSkip_ = false;
                skip = mix64(sp.seed) % (skipBase + 1);
            }
            samplePhase_ = SamplePhase::Skip;
            samplePhaseEnd_ = committed + skip;
            break;
          }
          case SamplePhase::Skip:
            samplePhase_ = SamplePhase::Warm;
            samplePhaseEnd_ = committed + sp.warmingInsts;
            break;
          case SamplePhase::Warm:
            samplePhase_ = SamplePhase::Detailed;
            sampleWindowStartInsts_ = committed;
            sampleWindowStartCycle_ = now_;
            samplePhaseEnd_ = committed + sp.windowInsts;
            break;
        }
    }
}

/**
 * The functional phases' hooks into the stepping core. Frames called
 * in the phase stay on a flat vector and move onto the persistent
 * CowStack only when the phase returns; returns pop them first, then
 * the frames the phase inherited. With kWarm set the structures a
 * later detailed window reads through (L1I/L1D/L2, D-TLB, conditional
 * predictor, BTB, RSB, and the policy's view caches via warmAccess)
 * see accounting-free accesses; the skip instantiation's hooks compile
 * to nothing.
 */
template <bool kWarm>
struct Pipeline::PhaseHooks : FunctionalHooks
{
    Pipeline &p;
    SpeculationPolicy &pol;
    std::vector<Frame> &frames; ///< Pipeline::phaseFrames_, emptied

    void
    fetch(const Function &fn, std::uint32_t idx)
    {
        if constexpr (kWarm) {
            Addr line = fn.instAddr(idx) / 64;
            if (line != p.lastFetchLine_) {
                p.lastFetchLine_ = line;
                p.caches_.accessInst(fn.instAddr(idx), nullptr);
            }
        }
    }

    void
    load(const Function &fn, std::uint32_t idx, Addr ea)
    {
        if constexpr (kWarm) {
            p.dtlb_.translate(ea, p.asid_);
            p.caches_.accessData(ea, nullptr);
            if (fn.kernel) {
                SpecContext ctx;
                ctx.pc = fn.instAddr(idx);
                ctx.dataVa = ea;
                ctx.func = fn.id;
                ctx.kernelMode = true;
                ctx.asid = p.asid_;
                ctx.now = p.now_;
                pol.warmAccess(ctx);
            }
        }
    }

    bool
    store(Addr ea)
    {
        if constexpr (kWarm)
            p.caches_.accessData(ea, nullptr);
        return true;
    }

    void
    branch(const Function &fn, std::uint32_t idx, bool taken)
    {
        if constexpr (kWarm) {
            // Net architectural effect of a correctly predicted,
            // resolved branch: history advanced by the outcome, tables
            // trained against the pre-branch history.
            std::uint64_t h = p.cond_.history();
            p.cond_.speculate(taken);
            p.cond_.update(fn.instAddr(idx), taken, h);
        }
    }

    void
    indirectCall(const Function &fn, std::uint32_t idx, FuncId target)
    {
        if constexpr (kWarm)
            p.btb_.update(fn.instAddr(idx), target);
    }

    void
    call(const Function &caller, std::uint32_t idx, FuncId)
    {
        Frame fr;
        fr.func = caller.id;
        fr.retIdx = idx + 1;
        fr.slotVa =
            p.stackBase_ - 8 * (p.fetch_.stack.size() + frames.size() + 1);
        frames.push_back(fr);
        if constexpr (kWarm) {
            p.rsb_.push({fr.func, fr.retIdx});
            p.caches_.accessData(fr.slotVa, nullptr);
        }
    }

    bool
    ret(FuncId &func, std::uint32_t &idx)
    {
        Frame truth;
        if (!frames.empty()) {
            truth = frames.back();
            frames.pop_back();
        } else if (!p.fetch_.stack.empty()) {
            truth = p.fetch_.stack.back();
            p.fetch_.stack.pop_back();
        } else {
            return false;
        }
        if constexpr (kWarm) {
            p.rsb_.pop();
            p.caches_.accessData(truth.slotVa, nullptr);
        }
        func = truth.func;
        idx = truth.retIdx;
        return true;
    }
};

template <bool kWarm>
void
Pipeline::functionalAdvance(std::uint64_t budget, SpeculationPolicy &pol)
{
    // Architectural-only execution at a quiescent point (DESIGN §5.8):
    // no timing (now_ is frozen), no speculation, no squashes, and so
    // nothing here is ever classified by the leakage ledger
    // (classification requires speculation). The committed counters
    // are bumped once, when the phase returns.
    phaseFrames_.clear();
    PhaseHooks<kWarm> hooks{{}, *this, pol, phaseFrames_};
    FunctionalResult r = runFunctional(prog_, mem_, regs_, fetch_.func,
                                       fetch_.idx, budget, hooks);
    if (r.returned) {
        // Outermost return: the run is over (the op counts, exactly
        // like the committing detailed return).
        fetch_.halted = true;
        halted_ = true;
    }
    ctrCommitted_.inc(r.uops);
    ctrCommittedKernel_.inc(r.kernelUops);
    for (const Frame &fr : phaseFrames_)
        fetch_.stack.push_back(fr, stackPool_);
}

} // namespace perspective::sim
