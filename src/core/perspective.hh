/**
 * @file
 * PerspectivePolicy: the hardware protection mechanism of Perspective,
 * plugged into the pipeline through the pliable SpeculationPolicy
 * interface.
 *
 * For every speculative kernel-mode transmitter the policy performs:
 *
 *  1. the ISV check — is the *instruction* inside the context's
 *     instruction speculation view? (ISV cache; miss -> block and
 *     fill through the TLB path);
 *  2. the DSV check — is the accessed *data page* inside the
 *     context's data speculation view? (DSVMT cache; miss -> block
 *     and fill; unknown-provenance memory always blocks).
 *
 * Blocked instructions stall until their Visibility Point, exactly
 * the fence semantics of Section 6.2. Userspace execution and non-
 * speculative accesses are never affected.
 *
 * Pliability at runtime (the dynamic-update story): views are live
 * data, not boot-time constants. Three update flows are modeled:
 *
 *  - ISV extension (module / eBPF load): the view object mutates and
 *    its epoch ticks; blocked loads re-gate through the epoch wake
 *    dependency and running contexts resync at their next check.
 *  - DSV revocation (free / realloc ownership handoff): with
 *    revocationLatency > 0 the shootdown is deferred — the DSV cache
 *    and the DSVMT mirrors keep the *old* verdict until the pending
 *    revocation drains, modeling the transient window in which an
 *    in-flight speculative load can still read the revoked frame.
 *    The window length is exported as "transient_gap_cycles" and
 *    loads allowed on a stale verdict as "revocation.stale_allows".
 *  - Fleet flip (admin tightens enforcement system-wide, DEXCR
 *    style): fleetTighten ORs aspect bits in; each context syncs the
 *    effective value at its first gate check past the flip's
 *    visibility point, dropping its cached verdicts.
 */

#ifndef PERSPECTIVE_CORE_PERSPECTIVE_HH
#define PERSPECTIVE_CORE_PERSPECTIVE_HH

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsvmt.hh"
#include "hwcache.hh"
#include "isv.hh"
#include "kernel/ownership.hh"
#include "sim/leakage.hh"
#include "sim/policy.hh"

namespace perspective::core
{

/** Feature toggles (sensitivity analyses flip these). */
struct PerspectiveConfig
{
    bool enableIsv = true;
    bool enableDsv = true;
    /** Block speculative access to unknown allocations (Section 9.2
     * quantifies the cost of keeping this on). */
    bool blockUnknown = true;
    /** ISV/DSV cache refill latency (TLB + L2 access). */
    sim::Cycle fillLatency = 14;
    /** Hardware lookup structure geometry (Table 7.1 defaults). */
    unsigned isvCacheEntries = 128;
    unsigned dsvCacheEntries = 128;
    unsigned cacheAssoc = 4;
    /** Untagged-structure emulation: flush the ISV/DSV caches on
     * every context switch. Section 6.2 tags entries with the ASID
     * precisely to avoid this; the ablation quantifies the win. */
    bool flushOnContextSwitch = false;
    /** Cycles between an ownership change (free / realloc handoff)
     * and its DSV shootdown landing. 0 keeps the legacy synchronous
     * listener (caches and mirrors update in the same event);
     * nonzero opens the mid-flight revocation window the pliability
     * scenarios race. Requires setClock() to take effect. */
    sim::Cycle revocationLatency = 0;

    bool operator==(const PerspectiveConfig &) const = default;
};

/**
 * Call @p f(name, value) for every PerspectiveConfig field, in
 * declaration order: the one field list that the sweep cell key and
 * the sweep JSON read. The structured binding stops compiling when a
 * field is added to the struct and not to this list.
 */
template <typename F>
void
forEachField(const PerspectiveConfig &cfg, F &&f)
{
    const auto &[enable_isv, enable_dsv, block_unknown, fill_latency,
                 isv_cache_entries, dsv_cache_entries, cache_assoc,
                 flush_on_context_switch, revocation_latency] = cfg;
    f("enable_isv", enable_isv);
    f("enable_dsv", enable_dsv);
    f("block_unknown", block_unknown);
    f("fill_latency", fill_latency);
    f("isv_cache_entries", isv_cache_entries);
    f("dsv_cache_entries", dsv_cache_entries);
    f("cache_assoc", cache_assoc);
    f("flush_on_context_switch", flush_on_context_switch);
    f("revocation_latency", revocation_latency);
}

/** @name Modeled fleet-flip latency
 * Cycle cost of an admin system-wide enforcement flip: a base (sysfs
 * write + broadcast IPI) plus per-registered-context resync work.
 * @{ */
inline constexpr sim::Cycle kFleetFlipBase = 240;
inline constexpr sim::Cycle kFleetFlipPerContext = 60;
/** @} */

/** The Perspective hardware mechanism. */
class PerspectivePolicy : public sim::SpeculationPolicy
{
  public:
    /**
     * @param ownership ground-truth frame ownership (the in-memory
     *        DSVMT contents); the policy registers an invalidation
     *        listener, so it must not outlive @p ownership.
     */
    PerspectivePolicy(kernel::OwnershipMap &ownership,
                      PerspectiveConfig cfg = {},
                      std::string name = "perspective");
    /** Deregisters the ownership listener: short-lived policies (the
     * attack races lease one per run) must not leave a dangling
     * this-capture behind in the map. */
    ~PerspectivePolicy() override;
    PerspectivePolicy(const PerspectivePolicy &) = delete;
    PerspectivePolicy &operator=(const PerspectivePolicy &) = delete;

    /**
     * Associate an execution context: its ASID, its ownership domain
     * (DSV), and its instruction speculation view (may be null when
     * running DSV-only configurations).
     */
    void registerContext(sim::Asid asid, kernel::DomainId domain,
                         const IsvView *isv);

    sim::Verdict gateLoad(const sim::SpecContext &ctx) override;

    /** Accounting-free ISV/DSV cache warming for sampled simulation's
     * functional phases (DESIGN §5.8): fills the same entries a
     * gateLoad at @p ctx would, with ready-at-0 latency, without
     * touching counters, histograms or burst runs. */
    void warmAccess(const sim::SpecContext &ctx) override;

    void setStats(sim::StatSet *stats) override;
    const char *name() const override { return name_.c_str(); }

    IsvCache &isvCache() { return isvCache_; }
    DsvCache &dsvCache() { return dsvCache_; }

    /**
     * Per-domain DSVMT mirror (kept in sync with ownership). Fails
     * loudly on a domain no context was ever registered for — the
     * old accessor default-inserted an empty tree, silently answering
     * "nothing is in the DSV" for a typo'd domain.
     * @throws std::out_of_range when @p domain has no mirror.
     */
    const Dsvmt &dsvmtOf(kernel::DomainId domain) const;

    const PerspectiveConfig &config() const { return cfg_; }

    /** Wire the pipeline cycle counter; timestamps deferred
     * revocations and fleet flips. Null (the default) keeps every
     * update path synchronous. */
    void setClock(const sim::Cycle *cycle) { clock_ = cycle; }

    /** @name Dynamic updates
     * @{ */

    /** Admin fleet flip: OR @p aspect_bits (kernel/fleet.hh) into the
     * system-wide enforcement value. @p admin_isv, when given, is the
     * view intersected into ISV fills under kFleetRestrictIsv; it
     * must outlive the policy. Returns the modeled flip latency
     * (sampled into "update_latency"); contexts observe the new value
     * at their first gate check past now + that latency. */
    sim::Cycle fleetTighten(std::uint32_t aspect_bits,
                            const IsvView *admin_isv = nullptr);

    std::uint32_t fleetBits() const { return fleetBits_; }

    /** Sample one modeled view-update latency into the
     * "update_latency" sweep histogram (ISV extension flows compute
     * theirs via isvUpdateLatency and report it here). */
    void noteUpdateLatency(sim::Cycle latency);

    /** Revocations scheduled but not yet landed (the open window). */
    std::size_t pendingRevocations() const { return pending_.size(); }

    /** Functional sampling phases are deferred while a revocation
     * window is open: landing is driven by gate checks against the
     * clock, and the conservative contract (DESIGN §5.8) keeps the
     * detailed path in charge whenever dynamic-update state is in
     * flight. */
    bool
    allowFunctionalPhases() const override
    {
        return pending_.empty();
    }

    /**
     * Which dynamic-update window (if any) is open for @p va in the
     * context registered under @p asid (DESIGN §5.6). A pending
     * revocation covering @p va's frame wins, then an unsynced fleet
     * flip, then an unsynced ISV epoch; Baseline means "no open
     * window explains a stale allow".
     */
    sim::LeakWindow updateWindow(sim::Addr va,
                                 sim::Asid asid) const override;

    /** Land every pending revocation immediately (window closed by
     * fiat — used by tests and at end-of-scenario barriers). */
    void flushPendingRevocations();

    /** @} */

    /** Aggregate DSVMT walk MRU-granule telemetry over every
     * per-domain mirror (the hardware fill path walks the mirror,
     * so these count real DSV-fill traffic). */
    std::uint64_t dsvmtMruHits() const;
    std::uint64_t dsvmtMruLookups() const;
    void resetDsvmtMruStats();

    /** The ISV/DSV cache hit rates and the DSVMT telemetry above. */
    void resetAccounting() override;
    std::optional<sim::LookupAccounting> accounting() const override;

  private:
    struct Context
    {
        kernel::DomainId domain = kernel::kDomainUnknown;
        const IsvView *isv = nullptr;
        std::uint64_t isvEpochSeen = 0;
        /** Fleet generation this context last synchronized with (the
         * per-task DEXCR copy; 0 = boot value). */
        std::uint64_t fleetSeen = 0;
    };

    /** One deferred DSV shootdown (ownership already changed in the
     * kernel; caches and mirrors still hold the old verdict). */
    struct PendingRevocation
    {
        kernel::Pfn pfn = 0;
        sim::Cycle revokedAt = 0;
        sim::Cycle applyAt = 0;
    };

    kernel::OwnershipMap &ownership_;
    kernel::OwnershipMap::ListenerId listenerId_ = 0;
    PerspectiveConfig cfg_;
    std::string name_;
    IsvCache isvCache_;
    DsvCache dsvCache_;
    std::unordered_map<sim::Asid, Context> contexts_;
    std::unordered_map<kernel::DomainId, Dsvmt> dsvmts_;
    sim::Asid lastAsid_ = 0;

    /** Ticks whenever the context table changes (registerContext)
     * or a fleet flip is requested; wakes loads blocked on an
     * unregistered ASID or a pre-flip verdict. */
    std::uint64_t contextsGen_ = 0;

    /** One-entry MRU over contexts_ — gateLoad resolves the same
     * ASID for every load of a run. Pointers into unordered_map
     * nodes are stable; the MRU is dropped whenever the table can
     * change (registerContext). */
    sim::Asid ctxMruAsid_ = 0;
    Context *ctxMruCtx_ = nullptr;
    Dsvmt *ctxMruTree_ = nullptr;

    // Dynamic-update state.
    const sim::Cycle *clock_ = nullptr;
    std::vector<PendingRevocation> pending_;
    std::uint32_t fleetBits_ = 0;
    std::uint64_t fleetGen_ = 0;
    sim::Cycle fleetFlipAt_ = 0;
    sim::Cycle fleetVisibleAt_ = 0;
    const IsvView *adminIsv_ = nullptr;

    /** One view cache's gate telemetry (counter handles resolved in
     * setStats). */
    struct ViewTally
    {
        sim::Counter fence;
        sim::Counter miss;
        /** Miss-burst histogram, created at its first sample. */
        sim::LazyHistogram burst;
        /** Current consecutive-miss run; a hit closes the run and
         * samples it into burst. */
        std::uint64_t missRun = 0;
    };

    sim::Counter ctrUnregistered_;
    ViewTally isvTally_;
    ViewTally dsvTally_;

    /** The context registered under @p asid (null when none), through
     * the one-entry MRU; also points ctxMruTree_ at its mirror. */
    Context *contextFor(sim::Asid asid);

    /** Drop @p c's ISV cache entries when its view was reconfigured
     * since the last check (epoch tick). */
    void syncIsvEpoch(sim::Asid asid, Context &c);

    /** ISV-cache refill bits for @p pc's region under context @p c:
     * the context's view, intersected with a synced fleet admin view
     * under kFleetRestrictIsv. */
    IsvRegionBits isvFillBits(sim::Addr pc, const Context &c) const;

    /** One view's half of gateLoad: look @p va up in @p cache, fill
     * it with fill_value() on a first-check miss, and keep @p tally.
     * Returns nullopt when the view allows, else the cycle the Block
     * rechecks at (0 = none). */
    template <typename Cache, typename FillValue>
    std::optional<sim::Cycle> checkView(Cache &cache, ViewTally &tally,
                                        const sim::SpecContext &ctx,
                                        sim::Addr va, FillValue fill_value);

    /** DSV-cache refill value for @p va under context @p c: walk the
     * domain's DSVMT mirror (MRU-cached), falling back to the
     * ownership ground truth when no mirror exists. During an open
     * revocation window the mirror deliberately answers with the
     * pre-handoff verdict. */
    bool dsvFillValue(sim::Addr va, const Context &c);

    /** Effective blockUnknown: the static config OR'd with a synced
     * fleet enforcement (a context only observes the fleet value it
     * has synchronized with). */
    bool effBlockUnknown(const Context &c) const;

    /** Shoot down @p pfn's DSV cache entries and refresh every
     * mirror's bit for it from current ownership. */
    void syncFrame(kernel::Pfn pfn);

    /** Land one pending revocation (syncFrame); samples the realized
     * window into "transient_gap_cycles". */
    void applyRevocation(const PendingRevocation &r, sim::Cycle now);
    void drainRevocations(sim::Cycle now);

    /** Landing cycle of the earliest pending revocation (0 = none):
     * gateLoad drains it at the first check past that cycle, so a
     * blocked load's wake rechecks there. */
    sim::Cycle nextRevocationAt() const;
};

} // namespace perspective::core

#endif // PERSPECTIVE_CORE_PERSPECTIVE_HH
