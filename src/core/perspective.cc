#include "perspective.hh"

#include <cassert>
#include <stdexcept>

#include "kernel/fleet.hh"
#include "sim/trace.hh"

namespace perspective::core
{

using kernel::DomainId;
using kernel::kDomainReplicated;
using kernel::kDomainUnknown;
using sim::Gate;
using sim::SpecContext;

namespace
{

/** The DSV ownership predicate: may @p domain speculatively access a
 * frame owned by @p owner? */
bool
ownerAdmits(DomainId owner, DomainId domain, bool block_unknown)
{
    if (owner == kDomainUnknown)
        return !block_unknown;
    return owner == domain || owner == kDomainReplicated;
}

} // namespace

PerspectivePolicy::PerspectivePolicy(kernel::OwnershipMap &ownership,
                                     PerspectiveConfig cfg,
                                     std::string name)
    : ownership_(ownership),
      cfg_(cfg),
      name_(std::move(name)),
      isvCache_(cfg.isvCacheEntries, cfg.cacheAssoc),
      dsvCache_(cfg.dsvCacheEntries, cfg.cacheAssoc)
{
    // Ownership changes shoot down stale DSV cache entries and the
    // per-domain DSVMT mirrors, the software/hardware contract of
    // Section 6.1. With a clock and a nonzero revocationLatency the
    // shootdown is deferred instead: the kernel has already moved the
    // frame, but the hardware keeps the old verdict until the
    // pending revocation drains — the mid-flight window.
    listenerId_ = ownership_.addListener([this](kernel::Pfn pfn) {
        if (clock_ && cfg_.revocationLatency > 0) {
            pending_.push_back(
                {pfn, *clock_, *clock_ + cfg_.revocationLatency});
            return;
        }
        syncFrame(pfn);
    });
}

PerspectivePolicy::~PerspectivePolicy()
{
    ownership_.removeListener(listenerId_);
}

void
PerspectivePolicy::registerContext(sim::Asid asid, DomainId domain,
                                   const IsvView *isv)
{
    Context c;
    c.domain = domain;
    c.isv = isv;
    c.isvEpochSeen = isv ? isv->epoch() : 0;
    c.fleetSeen = fleetGen_;
    contexts_[asid] = c;
    ctxMruCtx_ = nullptr;
    ctxMruTree_ = nullptr;
    ++contextsGen_;

    // Materialize the domain's DSVMT from current ownership (the OS
    // builds the in-memory table when the context is created); the
    // listener keeps it in sync afterwards.
    auto [it, fresh] = dsvmts_.try_emplace(domain);
    if (fresh) {
        Dsvmt &tree = it->second;
        ownership_.forEachAssigned(
            [&tree, domain](kernel::Pfn pfn, DomainId owner) {
                if (owner == domain || owner == kDomainReplicated)
                    tree.setPage(pfn, true);
            });
    }
}

sim::LeakWindow
PerspectivePolicy::updateWindow(sim::Addr va, sim::Asid asid) const
{
    // Priority: a pending revocation covering the frame is the most
    // specific explanation for a stale allow, then the coarser
    // context-wide windows.
    if (kernel::inDirectMap(va)) {
        kernel::Pfn pfn = kernel::directMapPfn(va);
        for (const PendingRevocation &r : pending_) {
            if (r.pfn == pfn)
                return sim::LeakWindow::Revocation;
        }
    }
    auto it = contexts_.find(asid);
    if (it != contexts_.end()) {
        const Context &c = it->second;
        if (fleetGen_ != 0 && c.fleetSeen != fleetGen_)
            return sim::LeakWindow::FleetFlip;
        if (c.isv && c.isvEpochSeen != c.isv->epoch())
            return sim::LeakWindow::ModuleLoad;
    }
    return sim::LeakWindow::Baseline;
}

const Dsvmt &
PerspectivePolicy::dsvmtOf(DomainId domain) const
{
    auto it = dsvmts_.find(domain);
    if (it == dsvmts_.end()) {
        throw std::out_of_range(
            name_ + ": dsvmtOf(" + std::to_string(domain) +
            "): no context was registered for this domain");
    }
    return it->second;
}

sim::Cycle
PerspectivePolicy::fleetTighten(std::uint32_t aspect_bits,
                                const IsvView *admin_isv)
{
    fleetBits_ |= aspect_bits;
    if (admin_isv)
        adminIsv_ = admin_isv;
    ++fleetGen_;
    sim::Cycle now = clock_ ? *clock_ : 0;
    sim::Cycle lat =
        kFleetFlipBase +
        kFleetFlipPerContext * static_cast<sim::Cycle>(contexts_.size());
    fleetFlipAt_ = now;
    fleetVisibleAt_ = now + lat;
    // Wake anything blocked under a pre-flip verdict; it re-gates and
    // picks up the tightened value once past fleetVisibleAt_.
    ++contextsGen_;
    noteUpdateLatency(lat);
    if (sim::trace::eventsEnabled()) {
        sim::trace::Event ev;
        ev.flag = sim::trace::Flag::Window;
        ev.start = now;
        ev.dur = lat;
        ev.kernel = true;
        ev.name = "fleet-flip window";
        ev.func = name_;
        sim::trace::eventLog()->record(std::move(ev));
    }
    return lat;
}

void
PerspectivePolicy::noteUpdateLatency(sim::Cycle latency)
{
    if (stats_)
        stats_->histogram("update_latency").sample(latency);
}

void
PerspectivePolicy::syncFrame(kernel::Pfn pfn)
{
    dsvCache_.shootdown(kernel::directMapVa(pfn));
    DomainId owner = ownership_.ownerOf(pfn);
    for (auto &[domain, tree] : dsvmts_)
        tree.setPage(pfn, owner == domain || owner == kDomainReplicated);
}

void
PerspectivePolicy::applyRevocation(const PendingRevocation &r,
                                   sim::Cycle now)
{
    syncFrame(r.pfn);
    if (stats_) {
        stats_->histogram("transient_gap_cycles")
            .sample(now >= r.revokedAt ? now - r.revokedAt : 0);
    }
    // Structured span for the realized window, rendered in Perfetto
    // next to the pipeline lanes (leak events land inside it).
    if (sim::trace::eventsEnabled()) {
        sim::trace::Event ev;
        ev.flag = sim::trace::Flag::Window;
        ev.start = r.revokedAt;
        ev.dur = now >= r.revokedAt ? now - r.revokedAt : 0;
        ev.seq = r.pfn;
        ev.kernel = true;
        ev.name = "revocation window";
        ev.func = "pfn[" + std::to_string(r.pfn) + "]";
        sim::trace::eventLog()->record(std::move(ev));
    }
}

void
PerspectivePolicy::drainRevocations(sim::Cycle now)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].applyAt <= now)
            applyRevocation(pending_[i], now);
        else
            pending_[kept++] = pending_[i];
    }
    pending_.resize(kept);
}

sim::Cycle
PerspectivePolicy::nextRevocationAt() const
{
    sim::Cycle at = 0;
    for (const PendingRevocation &r : pending_) {
        if (at == 0 || r.applyAt < at)
            at = r.applyAt;
    }
    return at;
}

void
PerspectivePolicy::flushPendingRevocations()
{
    for (const PendingRevocation &r : pending_)
        applyRevocation(r, clock_ ? *clock_ : r.applyAt);
    pending_.clear();
}

std::uint64_t
PerspectivePolicy::dsvmtMruHits() const
{
    std::uint64_t n = 0;
    for (const auto &[domain, tree] : dsvmts_)
        n += tree.mruHits();
    return n;
}

std::uint64_t
PerspectivePolicy::dsvmtMruLookups() const
{
    std::uint64_t n = 0;
    for (const auto &[domain, tree] : dsvmts_)
        n += tree.mruLookups();
    return n;
}

void
PerspectivePolicy::resetDsvmtMruStats()
{
    for (auto &[domain, tree] : dsvmts_)
        tree.resetMruStats();
}

void
PerspectivePolicy::resetAccounting()
{
    isvCache_.resetAccounting();
    dsvCache_.resetAccounting();
    resetDsvmtMruStats();
}

std::optional<sim::LookupAccounting>
PerspectivePolicy::accounting() const
{
    return sim::LookupAccounting{isvCache_.hitRate(), dsvCache_.hitRate(),
                                 dsvmtMruHits(), dsvmtMruLookups()};
}

void
PerspectivePolicy::setStats(sim::StatSet *stats)
{
    SpeculationPolicy::setStats(stats);
    if (!stats)
        return;
    ctrUnregistered_ =
        stats->counter("perspective.fence.unregistered");
    isvTally_.fence = stats->counter("perspective.fence.isv");
    isvTally_.miss = stats->counter("perspective.fence.isv_miss");
    isvTally_.burst = sim::LazyHistogram(stats, "isv_miss_burst");
    dsvTally_.fence = stats->counter("perspective.fence.dsv");
    dsvTally_.miss = stats->counter("perspective.fence.dsv_miss");
    dsvTally_.burst = sim::LazyHistogram(stats, "dsv_miss_burst");
    // Dynamic-update metrics ("update_latency",
    // "transient_gap_cycles", "revocation.stale_allows") are created
    // lazily at event time: static configurations must emit exactly
    // the legacy stat set, bit for bit.
}

PerspectivePolicy::Context *
PerspectivePolicy::contextFor(sim::Asid asid)
{
    // Every load of a run resolves the same ASID: a one-entry MRU
    // makes the common case pointer-stable and hash-free
    // (unordered_map node addresses survive rehashing; the MRU is
    // dropped whenever contexts_/dsvmts_ can change).
    if (ctxMruCtx_ && ctxMruAsid_ == asid)
        return ctxMruCtx_;
    auto it = contexts_.find(asid);
    if (it == contexts_.end())
        return nullptr;
    ctxMruAsid_ = asid;
    ctxMruCtx_ = &it->second;
    auto tit = dsvmts_.find(it->second.domain);
    ctxMruTree_ = tit == dsvmts_.end() ? nullptr : &tit->second;
    return ctxMruCtx_;
}

void
PerspectivePolicy::syncIsvEpoch(sim::Asid asid, Context &c)
{
    // A reconfigured view invalidates this context's entries.
    if (c.isvEpochSeen != c.isv->epoch()) {
        isvCache_.invalidateAsid(asid);
        c.isvEpochSeen = c.isv->epoch();
    }
}

IsvRegionBits
PerspectivePolicy::isvFillBits(sim::Addr pc, const Context &c) const
{
    IsvRegionBits bits;
    bits.bits = c.isv->regionBits(pc, IsvCache::kGranuleBytes);
    if (adminIsv_ && c.fleetSeen == fleetGen_ &&
        (fleetBits_ & kernel::kFleetRestrictIsv) != 0) {
        // Admin restriction composes by intersection: no tenant view
        // may widen past the fleet view.
        auto admin = adminIsv_->regionBits(pc, IsvCache::kGranuleBytes);
        bits.bits[0] &= admin[0];
        bits.bits[1] &= admin[1];
    }
    return bits;
}

template <typename Cache, typename FillValue>
std::optional<sim::Cycle>
PerspectivePolicy::checkView(Cache &cache, ViewTally &tally,
                             const SpecContext &ctx, sim::Addr va,
                             FillValue fill_value)
{
    HwLookup look =
        cache.lookup(va, ctx.asid, ctx.now, ctx.firstCheck);
    if (!look.hit) {
        if (!ctx.firstCheck)
            return look.readyAt;
        // A fill already in flight (started by another load) keeps
        // its ready cycle; block until then.
        sim::Cycle ready = cache.fill(va, ctx.asid, fill_value(),
                                      ctx.now + cfg_.fillLatency);
        ++tally.missRun;
        if (stats_) {
            tally.fence.inc();
            tally.miss.inc();
        }
        return ready;
    }
    if (ctx.firstCheck && tally.missRun != 0) {
        // A hit ends a consecutive-miss burst: record its length so
        // the cache-behaviour analyses can tell scattered misses
        // (capacity) from bursts (cold regions / view
        // reconfigurations).
        if (stats_)
            tally.burst.sample(tally.missRun);
        tally.missRun = 0;
    }
    if (look.allow)
        return std::nullopt;
    if (stats_ && ctx.firstCheck)
        tally.fence.inc();
    return sim::Cycle{0};
}

bool
PerspectivePolicy::effBlockUnknown(const Context &c) const
{
    if (cfg_.blockUnknown)
        return true;
    return fleetGen_ != 0 && c.fleetSeen == fleetGen_ &&
           (fleetBits_ & kernel::kFleetBlockUnknown) != 0;
}

sim::Verdict
PerspectivePolicy::gateLoad(const SpecContext &ctx)
{
    // Land any revocation whose shootdown latency has elapsed before
    // this check reads the caches (empty in static configurations).
    if (!pending_.empty())
        drainRevocations(ctx.now);

    // Perspective protects kernel execution; userspace speculation
    // and non-speculative accesses proceed unimpeded.
    if (!ctx.kernelMode || !ctx.speculative)
        return {};

    bool flush_on_switch =
        cfg_.flushOnContextSwitch ||
        ((fleetBits_ & kernel::kFleetFlushOnSwitch) != 0 &&
         ctx.now >= fleetVisibleAt_);
    if (flush_on_switch && ctx.asid != lastAsid_) {
        // Untagged hardware would have to flush on every switch.
        isvCache_.invalidateAll();
        dsvCache_.invalidateAll();
    }
    lastAsid_ = ctx.asid;

    Context *c = contextFor(ctx.asid);
    if (!c) {
        // Unregistered context: conservatively block. The verdict
        // only changes if the context gets registered; the recheck
        // keeps the drain above on time.
        if (stats_ && ctx.firstCheck)
            ctrUnregistered_.inc();
        sim::Verdict v{Gate::Block, sim::GateWake::untilInputs()};
        v.wake.depend(&contextsGen_);
        v.wake.recheckAt = nextRevocationAt();
        return v;
    }

    // Fleet sync (DEXCR model): a task picks up a tightened
    // enforcement value at its first kernel gate check past the
    // flip's visibility point; its cached verdicts were computed
    // under the old value and are dropped.
    if (c->fleetSeen != fleetGen_ && ctx.now >= fleetVisibleAt_) {
        c->fleetSeen = fleetGen_;
        isvCache_.invalidateAsid(ctx.asid);
        dsvCache_.invalidateAll();
        if (stats_) {
            stats_->histogram("transient_gap_cycles")
                .sample(ctx.now >= fleetFlipAt_
                            ? ctx.now - fleetFlipAt_
                            : 0);
        }
    }

    // Any Block below is released by an ISV/DSV cache fill or
    // invalidation, an ISV reconfiguration (epoch tick), a context-
    // table change, the speculation horizon (implicit), or a cycle:
    // the blocking fill's ready cycle, a pending revocation landing,
    // or a fleet flip becoming visible.
    auto blockOnViews = [&](sim::Cycle ready_at) {
        sim::Verdict v{Gate::Block, sim::GateWake::untilInputs()};
        v.wake.depend(&contextsGen_);
        if (cfg_.enableIsv) {
            v.wake.depend(isvCache_.genPtr());
            if (c->isv)
                v.wake.depend(c->isv->epochPtr());
        }
        if (cfg_.enableDsv)
            v.wake.depend(dsvCache_.genPtr());
        v.wake.recheckAt = ready_at;
        v.wake.recheckBy(nextRevocationAt());
        if (ctx.now < fleetVisibleAt_)
            v.wake.recheckBy(fleetVisibleAt_);
        return v;
    };

    if (cfg_.enableIsv && c->isv) {
        syncIsvEpoch(ctx.asid, *c);
        auto bits = [&] { return isvFillBits(ctx.pc, *c); };
        if (auto ready = checkView(isvCache_, isvTally_, ctx, ctx.pc, bits))
            return blockOnViews(*ready);
    }

    if (cfg_.enableDsv && kernel::inDirectMap(ctx.dataVa)) {
        auto bit = [&] { return dsvFillValue(ctx.dataVa, *c); };
        if (auto ready =
                checkView(dsvCache_, dsvTally_, ctx, ctx.dataVa, bit))
            return blockOnViews(*ready);

        // The verdict says Allow — but is it stale? If a pending
        // revocation covers this page and ground truth now denies it
        // (under the context's effective blockUnknown, which a synced
        // fleet flip may have raised), this load is reading through
        // the open transient window.
        // (No firstCheck gate: a load that missed the DSV cache gets
        // its Allow on a recheck, and Allow ends the recheck loop, so
        // this fires once per resolved load either way.)
        if (!pending_.empty()) {
            kernel::Pfn pfn = kernel::directMapPfn(ctx.dataVa);
            for (const PendingRevocation &r : pending_) {
                if (r.pfn == pfn &&
                    !ownerAdmits(ownership_.ownerOfVa(ctx.dataVa),
                                 c->domain, effBlockUnknown(*c))) {
                    if (stats_) {
                        stats_
                            ->counter(
                                "perspective.revocation.stale_allows")
                            .inc();
                    }
                    break;
                }
            }
        }
    }

    return {};
}

void
PerspectivePolicy::warmAccess(const SpecContext &ctx)
{
    // Functional warming (DESIGN §5.8): replay a committed kernel
    // load against the ISV/DSV caches so sampled detailed windows
    // start with the lookup state a continuously-detailed run would
    // have. Everything here must stay accounting-free: no counters,
    // no burst runs, no histogram samples — warming has no timeline,
    // so fills land immediately ready. The
    // pipeline only warms while allowFunctionalPhases() holds, so no
    // revocation window is open.
    if (!ctx.kernelMode)
        return;

    Context *c = contextFor(ctx.asid);
    if (!c)
        return; // unregistered: nothing to warm

    if (cfg_.enableIsv && c->isv) {
        syncIsvEpoch(ctx.asid, *c);
        if (!isvCache_.lookup(ctx.pc, ctx.asid, ctx.now, false).hit)
            isvCache_.fill(ctx.pc, ctx.asid, isvFillBits(ctx.pc, *c), 0);
    }

    if (cfg_.enableDsv && kernel::inDirectMap(ctx.dataVa)) {
        if (!dsvCache_.lookup(ctx.dataVa, ctx.asid, ctx.now, false).hit)
            dsvCache_.fill(ctx.dataVa, ctx.asid,
                           dsvFillValue(ctx.dataVa, *c), 0);
    }
}

bool
PerspectivePolicy::dsvFillValue(sim::Addr va, const Context &c)
{
    // The hardware DSV-cache refill walks the domain's in-memory
    // DSVMT (the flat radix mirror — this is where the walk MRU
    // earns its keep). Unknown-provenance frames have no per-domain
    // entry; their verdict is the blockUnknown policy bit, exactly
    // the ownerAdmits predicate. During an open revocation window the
    // mirror still holds the pre-handoff bit — by design.
    bool block_unknown = effBlockUnknown(c);
    if (ctxMruTree_) {
        bool v = ctxMruTree_->queryVa(va);
        if (v)
            return true;
        if (!block_unknown)
            return ownership_.ownerOfVa(va) == kDomainUnknown;
        return false;
    }
    return ownerAdmits(ownership_.ownerOfVa(va), c.domain, block_unknown);
}

} // namespace perspective::core
