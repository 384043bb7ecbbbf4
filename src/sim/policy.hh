/**
 * @file
 * The pliable software/hardware interface: the pipeline consults a
 * SpeculationPolicy before letting a transmitter instruction execute
 * speculatively. Defense schemes (FENCE, DOM, STT, Perspective, ...)
 * implement this interface; the pipeline itself stays scheme-agnostic.
 */

#ifndef PERSPECTIVE_SIM_POLICY_HH
#define PERSPECTIVE_SIM_POLICY_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>

#include "leakage.hh"
#include "stats.hh"
#include "types.hh"

namespace perspective::sim
{

/**
 * The gate inputs that cost a walk to compute: STT taint (a walk up
 * the address operand's producer chain) and L1D presence (a set
 * walk). Only STT reads the one and only DOM the other, so the
 * pipeline answers them on demand, when a policy asks, instead of
 * filling them in for every speculative load under every scheme.
 */
class GateInputs
{
  public:
    /** Does the access's address depend on speculative data? */
    virtual bool addrTainted() = 0;
    /** Would the access hit in the L1D right now? */
    virtual bool l1dHit() = 0;

  protected:
    ~GateInputs() = default;
};

/**
 * Everything a policy may inspect about a pending transmitter.
 *
 * The plain fields are filled in before every gate call. tainted()
 * and l1dHit() are pulled on demand: the pipeline answers them in the
 * same cycle and from the same state the gate call sees, so a policy
 * reads exactly what a filled-in field would have held, and a policy
 * that never asks costs nothing. Asking is observation-only; it never
 * changes simulated state. There is no list of "inputs a policy
 * reads" to keep in step: whatever a policy calls is computed.
 */
struct SpecContext
{
    Addr pc = 0;          ///< VA of the transmitter instruction
    Addr dataVa = 0;      ///< effective address of the access
    FuncId func = kNoFunc;///< containing function
    bool speculative = false; ///< older squashable instruction exists
    bool kernelMode = false;  ///< executing kernel code
    Asid asid = 0;        ///< current address-space id
    Cycle now = 0;        ///< current cycle (for fill-latency models)
    /** Answers tainted()/l1dHit() for the duration of the gate call
     * (a policy must not keep it); null (a context built outside the
     * detailed loop, e.g. a warming replay or a unit test) reads both
     * as false. */
    GateInputs *inputs = nullptr;

    /** Address depends on speculative data (STT)? */
    bool tainted() const { return inputs && inputs->addrTainted(); }
    /** Would this access hit in the L1D (DOM)? */
    bool l1dHit() const { return inputs && inputs->l1dHit(); }

    /** True on the first gate evaluation of this dynamic instruction.
     * A blocked load is re-evaluated when its wake fires (see
     * GateWake), as often as every cycle, so policies bump
     * attribution statistics only on the first check. */
    bool firstCheck = true;
    /** Generation counter of the L1D's *content* (ticks whenever a
     * line is installed, evicted or flushed — never on an LRU-only
     * touch). A policy whose verdict reads l1dHit() lists this in its
     * GateWake so blocked loads re-evaluate only when a probe result
     * could actually have changed. */
    const std::uint64_t *l1dContentGen = nullptr;
};

/**
 * What a Block verdict depends on — the wake-driven re-evaluation
 * contract. A Block verdict carries its wake (Verdict::wake), and
 * the pipeline elides the per-cycle re-invocation of gateLoad until
 * one of its inputs changes:
 *
 *  - the speculation horizon (an older control op resolving) is
 *    always an implicit wake source — it can flip `speculative`
 *    and STT taint, and it is the release condition at the VP;
 *  - each listed generation counter is compared against its value
 *    at the blocking call; any tick forces a real re-evaluation;
 *  - recheckAt forces one at a known future cycle (an in-flight
 *    fill, or any other input that changes with the clock alone);
 *  - everyCycle (the default) disables elision entirely — unknown
 *    or stateful policies keep the exact every-cycle cadence.
 *
 * Elision must be invisible in every stat outside gate.*. Policies
 * bump attribution counters on firstCheck only, so an elided re-check
 * owes none, and the pipeline still charges its blocked cycle.
 * Over-waking is always safe (a real re-evaluation returns the same
 * Block); under-waking is a correctness bug — list every input the
 * verdict can read.
 */
struct GateWake
{
    /** Re-evaluate every cycle (the default). */
    bool everyCycle = true;

    static constexpr unsigned kMaxGens = 4;
    std::array<const std::uint64_t *, kMaxGens> gen{};
    unsigned numGens = 0;

    /** Cycle at which to force a re-evaluation regardless of the
     * generation counters (0 = none). */
    Cycle recheckAt = 0;

    /** Switch to input-driven wakes and add a generation source.
     * With gen[] full, a further source cannot be listed, so the wake
     * falls back to everyCycle (exact by construction) rather than
     * drop the source and under-wake. */
    void
    depend(const std::uint64_t *g)
    {
        if (numGens == kMaxGens) {
            assert(!g && "GateWake::depend: more than kMaxGens sources");
            if (g)
                everyCycle = true;
            return;
        }
        everyCycle = false;
        if (g)
            gen[numGens++] = g;
    }

    /** Bring the forced re-evaluation forward to @p at (0 = none). */
    void
    recheckBy(Cycle at)
    {
        if (at != 0 && (recheckAt == 0 || at < recheckAt))
            recheckAt = at;
    }

    /** Input-driven with no generation sources: the verdict can only
     * change with the speculation horizon (or recheckAt). */
    static GateWake
    untilInputs()
    {
        GateWake w;
        w.everyCycle = false;
        return w;
    }
};

/** Verdicts a policy can return for a speculative transmitter. */
enum class Gate : std::uint8_t
{
    Allow,          ///< execute now
    Block,          ///< re-evaluate when the wake fires (released
                    ///< at the VP)
    AllowInvisible, ///< execute without modifying the cache; the
                    ///< line installs at commit (InvisiSpec-style)
};

/** A gate decision: the verdict and, for Block, what it depends on.
 * The wake of any other verdict is ignored. */
struct Verdict
{
    Gate gate = Gate::Allow;
    GateWake wake;
};

/** A scheme's lookup-structure accounting over a measured phase
 * (Perspective's ISV/DSV caches and DSVMT walks). */
struct LookupAccounting
{
    double isvHitRate = 0;
    double dsvHitRate = 0;
    std::uint64_t dsvmtMruHits = 0;
    std::uint64_t dsvmtMruLookups = 0;
};

/**
 * Abstract defense scheme. While an instruction is blocked and still
 * speculative, gateLoad is re-invoked whenever the Block verdict's
 * wake fires; once the instruction reaches its Visibility Point the
 * pipeline stops asking and issues it.
 */
class SpeculationPolicy
{
  public:
    virtual ~SpeculationPolicy() = default;

    /** Decide whether the speculative transmitter may execute. A
     * Block without a wake of its own keeps the default GateWake
     * (every cycle). */
    virtual Verdict gateLoad(const SpecContext &ctx) = 0;

    /** Scheme name used in reports. */
    virtual const char *name() const = 0;

    /** Extra front-end cycles charged when entering the kernel. */
    virtual Cycle kernelEntryCost() const { return 0; }

    /** Extra cycles charged when returning to userspace. */
    virtual Cycle kernelExitCost() const { return 0; }

    /**
     * When true, indirect calls are executed as retpolines: the BTB is
     * never consulted and fetch stalls until the target resolves.
     */
    virtual bool retpoline() const { return false; }

    /**
     * When true, a hardware shadow stack provides return predictions
     * on RSB underflow instead of the (poisonable) BTB fallback.
     */
    virtual bool shadowStack() const { return false; }

    /**
     * May the core enter the functional sampling phases (skip/warm,
     * DESIGN §5.8) right now? Functional execution is non-speculative
     * by construction and never reaches gateLoad, so the default is
     * yes; a policy holding state it wants re-examined on the
     * detailed path (e.g. an open deferred-revocation window) answers
     * no until that state drains.
     */
    virtual bool allowFunctionalPhases() const { return true; }

    /**
     * Functional-warming hook (sampled simulation, DESIGN §5.8): the
     * pipeline's warming phase replays each committed kernel load
     * through this instead of gateLoad so scheme-owned lookup
     * structures (ISV/DSV caches) stay warm across skipped intervals.
     * Implementations must be *accounting-free* — no counters, no
     * histogram samples, no gate decisions, no wake bookkeeping —
     * and install fills as immediately ready: warming has no timeline
     * and must never perturb the statistics a detailed window
     * measures. The default (no scheme-owned state) does nothing.
     */
    virtual void warmAccess(const SpecContext &ctx) { (void)ctx; }

    /**
     * Which dynamic-update window (if any) is open for @p va in the
     * context running under @p asid — the leakage ledger's
     * attribution hook (DESIGN §5.6). Pure lookup. The default (a
     * scheme without live views) has none open.
     */
    virtual LeakWindow
    updateWindow(Addr va, Asid asid) const
    {
        (void)va;
        (void)asid;
        return LeakWindow::Baseline;
    }

    /**
     * Zero the scheme's lookup accounting without evicting anything
     * (cached entries survive) — the warmup/measured boundary. Like
     * updateWindow, this is asked of the *active* policy, so a
     * policy leased onto the pipeline reports its own lookups. The
     * default (no scheme-owned lookup structures) has none.
     */
    virtual void resetAccounting() {}

    /** The lookup accounting since resetAccounting(); nullopt for a
     * scheme without lookup structures. */
    virtual std::optional<LookupAccounting>
    accounting() const
    {
        return std::nullopt;
    }

    /** Stats sink for fence-attribution counters. Virtual so schemes
     * can resolve cached Counter handles for their hot-path counters
     * when the sink attaches. */
    virtual void setStats(StatSet *stats) { stats_ = stats; }

  protected:
    StatSet *stats_ = nullptr;
};

/** Baseline: never blocks anything. */
class UnsafePolicy : public SpeculationPolicy
{
  public:
    Verdict gateLoad(const SpecContext &) override { return {}; }
    const char *name() const override { return "unsafe"; }
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_POLICY_HH
