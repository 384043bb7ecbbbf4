#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/perspective.hh"
#include "kernel/fleet.hh"
#include "kernel/ownership.hh"
#include "sim/program.hh"

using namespace perspective;
using namespace perspective::core;
using namespace perspective::sim;
using kernel::directMapVa;
using kernel::kDomainReplicated;
using kernel::OwnershipMap;

namespace
{

struct PerspFixture : ::testing::Test
{
    Program prog;
    FuncId kf;
    OwnershipMap own{1024};

    PerspFixture()
    {
        kf = prog.addFunction("kfunc", true);
        prog.func(kf).body = {load(1, 10, 0), ret()};
        prog.layout();
    }

    SpecContext
    ctxFor(Addr pc, Addr data, Asid asid, bool first = true)
    {
        SpecContext c;
        c.pc = pc;
        c.dataVa = data;
        c.speculative = true;
        c.kernelMode = true;
        c.asid = asid;
        c.now = 1000;
        c.firstCheck = first;
        return c;
    }

    /**
     * Drive repeated gate evaluations (advancing time past every
     * fill) until the verdict is steady — the way a blocked load is
     * re-evaluated by the pipeline each cycle.
     */
    Gate
    steadyGate(PerspectivePolicy &pol, SpecContext c)
    {
        Gate g = Gate::Block;
        for (int i = 0; i < 5; ++i) {
            g = pol.gateLoad(c).gate;
            c.now += 1000;
            c.firstCheck = true;
        }
        return g;
    }

    /** Every counter, and every histogram's count and buckets. */
    static std::map<std::string, std::vector<std::uint64_t>>
    statSnapshot(const StatSet &s)
    {
        std::map<std::string, std::vector<std::uint64_t>> out;
        for (const auto &[name, v] : s.all())
            out[name] = {v};
        for (const auto &[name, h] : s.allHistograms()) {
            auto &row = out["histogram " + name];
            row.push_back(h.count());
            for (unsigned b = 0; b < Histogram::kNumBuckets; ++b)
                row.push_back(h.bucket(b));
        }
        return out;
    }

    /**
     * The warmAccess contract: warming asid 1's cold (pc, page) leaves
     * every hit/miss count, counter and histogram alone, and the
     * first gateLoad there then hits without a fill. With
     * @p restrict_isv a synced fleet admin view excludes the pc, and
     * the warmed and unwarmed paths both block.
     */
    void
    checkWarmAccessContract(bool restrict_isv)
    {
        PerspectivePolicy pol(own);
        StatSet stats;
        pol.setStats(&stats);
        IsvView view(prog);
        view.includeFunction(kf);
        IsvView admin(prog); // empty: excludes kf
        pol.registerContext(1, 3, &view);
        pol.registerContext(2, 3, &view);
        own.assign(5, 3);
        const Addr pc = prog.func(kf).instAddr(0);
        const SpecContext c = ctxFor(pc, directMapVa(5), 1);
        const Gate expected = restrict_isv ? Gate::Block : Gate::Allow;
        if (restrict_isv) {
            // Sync asid 1 with the flip, then drop what that check
            // filled.
            pol.fleetTighten(kernel::kFleetRestrictIsv, &admin);
            ASSERT_EQ(pol.gateLoad(c).gate, Gate::Block);
            pol.isvCache().invalidateAll();
            pol.dsvCache().invalidateAll();
        }
        // The unwarmed path (asid 2) leaves accounting to preserve.
        ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 2)),
                  expected);
        ASSERT_GT(pol.isvCache().hits(), 0u);

        const auto before = statSnapshot(stats);
        const std::uint64_t isv_hits = pol.isvCache().hits();
        const std::uint64_t isv_misses = pol.isvCache().misses();
        const std::uint64_t dsv_hits = pol.dsvCache().hits();
        const std::uint64_t dsv_misses = pol.dsvCache().misses();
        pol.warmAccess(c);
        EXPECT_EQ(statSnapshot(stats), before);
        EXPECT_EQ(pol.isvCache().hits(), isv_hits);
        EXPECT_EQ(pol.isvCache().misses(), isv_misses);
        EXPECT_EQ(pol.dsvCache().hits(), dsv_hits);
        EXPECT_EQ(pol.dsvCache().misses(), dsv_misses);

        const std::uint64_t isv_gen = *pol.isvCache().genPtr();
        const std::uint64_t dsv_gen = *pol.dsvCache().genPtr();
        EXPECT_EQ(pol.gateLoad(c).gate, expected);
        EXPECT_EQ(pol.isvCache().hits(), isv_hits + 1);
        EXPECT_EQ(pol.isvCache().misses(), isv_misses);
        EXPECT_EQ(pol.dsvCache().misses(), dsv_misses);
        EXPECT_EQ(*pol.isvCache().genPtr(), isv_gen);
        EXPECT_EQ(*pol.dsvCache().genPtr(), dsv_gen);
        if (restrict_isv) {
            // An ISV deny ends the check before the DSV lookup; the
            // warmed page is there all the same.
            EXPECT_EQ(pol.dsvCache().hits(), dsv_hits);
            EXPECT_TRUE(
                pol.dsvCache().lookup(c.dataVa, 1, c.now, false).hit);
        } else {
            EXPECT_EQ(pol.dsvCache().hits(), dsv_hits + 1);
        }
    }
};

} // namespace

TEST_F(PerspFixture, NonKernelAndNonSpeculativeAllowed)
{
    PerspectivePolicy pol(own);
    SpecContext c = ctxFor(prog.func(kf).instAddr(0),
                           directMapVa(5), 1);
    c.kernelMode = false;
    EXPECT_EQ(pol.gateLoad(c).gate, Gate::Allow);
    c.kernelMode = true;
    c.speculative = false;
    EXPECT_EQ(pol.gateLoad(c).gate, Gate::Allow);
}

TEST_F(PerspFixture, UnregisteredContextBlocks)
{
    PerspectivePolicy pol(own);
    EXPECT_EQ(pol.gateLoad(ctxFor(prog.func(kf).instAddr(0),
                                  directMapVa(5), 9)).gate,
              Gate::Block);
}

TEST_F(PerspFixture, DsvAllowsOwnPageBlocksForeign)
{
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, /*domain=*/3, &view);
    own.assign(5, 3); // own page
    own.assign(6, 4); // foreign page

    Addr pc = prog.func(kf).instAddr(0);
    // First checks miss the caches (conservative block + fill), then
    // the steady verdict reflects DSV membership.
    EXPECT_EQ(pol.gateLoad(ctxFor(pc, directMapVa(5), 1)).gate,
              Gate::Block);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Allow);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(6), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, UnknownMemoryAlwaysBlocks)
{
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    Addr pc = prog.func(kf).instAddr(0);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(7), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, UnknownAllowedWhenToggledOff)
{
    PerspectiveConfig cfg;
    cfg.blockUnknown = false; // Section 9.2 sensitivity knob
    PerspectivePolicy pol(own, cfg);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    Addr pc = prog.func(kf).instAddr(0);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(7), 1)),
              Gate::Allow);
}

TEST_F(PerspFixture, ReplicatedRodataInEveryDsv)
{
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    own.assign(8, kDomainReplicated);
    Addr pc = prog.func(kf).instAddr(0);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(8), 1)),
              Gate::Allow);
}

TEST_F(PerspFixture, IsvBlocksInstructionOutsideView)
{
    PerspectivePolicy pol(own);
    IsvView view(prog); // empty: kf not included
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    Addr pc = prog.func(kf).instAddr(0);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, OwnershipChangeInvalidatesDsvCache)
{
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    Addr pc = prog.func(kf).instAddr(0);
    ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Allow);

    // Page reassigned to another tenant: the cached positive entry
    // must not keep allowing access.
    own.assign(5, 4);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, IsvReconfigurationTakesEffect)
{
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    Addr pc = prog.func(kf).instAddr(0);
    ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Allow);

    // Swift patching: exclude the (now-vulnerable) function.
    view.excludeFunction(kf);
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, DsvmtMirrorsOwnership)
{
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    own.assign(6, 4);
    EXPECT_TRUE(pol.dsvmtOf(3).queryPfn(5));
    EXPECT_FALSE(pol.dsvmtOf(3).queryPfn(6));
}

TEST_F(PerspFixture, DsvmtOfThrowsForUnregisteredDomain)
{
    // The old accessor default-inserted an empty tree for a typo'd
    // domain and silently answered "nothing is in the DSV".
    PerspectivePolicy pol(own);
    IsvView view(prog);
    pol.registerContext(1, 3, &view);
    EXPECT_NO_THROW(pol.dsvmtOf(3));
    EXPECT_THROW(pol.dsvmtOf(42), std::out_of_range);
}

TEST_F(PerspFixture, InFlightIsvFillWakesWhenItLands)
{
    // Two loads in one ISV region: the second first-checks while the
    // first one's fill is in flight. The entry becomes usable when
    // that fill lands, so the second load must wake then, not a full
    // fill latency after its own check.
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    const sim::Cycle lat = pol.config().fillLatency;

    SpecContext a = ctxFor(prog.func(kf).instAddr(0), directMapVa(5), 1);
    a.now = 0;
    Verdict first = pol.gateLoad(a);
    ASSERT_EQ(first.gate, Gate::Block);
    EXPECT_EQ(first.wake.recheckAt, lat);

    SpecContext b = ctxFor(prog.func(kf).instAddr(1), directMapVa(5), 1);
    b.now = 5;
    Verdict second = pol.gateLoad(b);
    ASSERT_EQ(second.gate, Gate::Block);
    EXPECT_FALSE(second.wake.everyCycle);
    EXPECT_EQ(second.wake.recheckAt, lat);
}

TEST_F(PerspFixture, InFlightDsvFillWakesWhenItLands)
{
    // The same for a DSV page: the ISV entry is warm, the page's fill
    // was started by another load, and the second load wakes when
    // that fill lands.
    PerspectivePolicy pol(own);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    const sim::Cycle lat = pol.config().fillLatency;

    SpecContext warm = ctxFor(prog.func(kf).instAddr(0), directMapVa(5), 1);
    warm.now = 0;
    ASSERT_EQ(pol.gateLoad(warm).gate, Gate::Block); // ISV fill only

    SpecContext a = ctxFor(prog.func(kf).instAddr(0), directMapVa(5), 1);
    a.now = 100;
    Verdict first = pol.gateLoad(a);
    ASSERT_EQ(first.gate, Gate::Block);
    EXPECT_EQ(first.wake.recheckAt, 100 + lat);

    SpecContext b = ctxFor(prog.func(kf).instAddr(1), directMapVa(5), 1);
    b.now = 105;
    Verdict second = pol.gateLoad(b);
    ASSERT_EQ(second.gate, Gate::Block);
    EXPECT_FALSE(second.wake.everyCycle);
    EXPECT_EQ(second.wake.recheckAt, 100 + lat);
}

TEST_F(PerspFixture, UnregisteredBlockCountsOncePerLoad)
{
    // perspective.fence.unregistered attributes a blocked load, like
    // perspective.fence.isv/dsv: once, on its first check, however
    // often the load is re-evaluated while it stays blocked.
    PerspectivePolicy pol(own);
    StatSet stats;
    pol.setStats(&stats);
    SpecContext c = ctxFor(prog.func(kf).instAddr(0), directMapVa(5), 9);
    for (int i = 0; i < 4; ++i) {
        c.firstCheck = i == 0;
        EXPECT_EQ(pol.gateLoad(c).gate, Gate::Block);
        ++c.now;
    }
    EXPECT_EQ(stats.get("perspective.fence.unregistered"), 1u);
}

TEST_F(PerspFixture, BlockedWakeDependsOnIsvEpoch)
{
    // A load blocked on ISV membership must list the view's epoch
    // counter as a wake source: an OS view reconfiguration (module
    // load, Swift patch) is otherwise invisible to the elision layer
    // and the load sleeps through its own release.
    PerspectivePolicy pol(own);
    IsvView view(prog); // kf NOT included: steady Block on ISV
    pol.registerContext(1, 3, &view);
    own.assign(5, 3);
    Addr pc = prog.func(kf).instAddr(0);
    SpecContext c = ctxFor(pc, directMapVa(5), 1);
    ASSERT_EQ(steadyGate(pol, c), Gate::Block);

    c.now = 10'000; // past every fill: the steady ISV verdict
    Verdict v = pol.gateLoad(c);
    ASSERT_EQ(v.gate, Gate::Block);
    const GateWake &w = v.wake;
    EXPECT_FALSE(w.everyCycle);
    bool has_epoch = false;
    for (unsigned i = 0; i < w.numGens; ++i)
        has_epoch = has_epoch || w.gen[i] == view.epochPtr();
    EXPECT_TRUE(has_epoch);

    // The dependency is live: including the function ticks the epoch
    // and the steady verdict flips.
    std::uint64_t epoch0 = *view.epochPtr();
    view.includeFunction(kf);
    EXPECT_GT(*view.epochPtr(), epoch0);
    EXPECT_EQ(steadyGate(pol, c), Gate::Allow);
}

TEST_F(PerspFixture, DeferredRevocationKeepsStaleVerdictUntilApply)
{
    own.assign(5, 3); // owned up front: mirrored at registration
    PerspectiveConfig cfg;
    cfg.revocationLatency = 500;
    PerspectivePolicy pol(own, cfg);
    sim::Cycle clock = 1000;
    pol.setClock(&clock);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    Addr pc = prog.func(kf).instAddr(0);
    ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Allow);

    // Handoff at cycle 10000 (well past the warmup fills): the
    // shootdown applies at 10500. Until then mirror and cached
    // verdict stay stale — by design, this is the modeled transient
    // window.
    clock = 10000;
    own.assign(5, 4);
    EXPECT_EQ(pol.pendingRevocations(), 1u);
    EXPECT_TRUE(pol.dsvmtOf(3).queryPfn(5));
    SpecContext in_window = ctxFor(pc, directMapVa(5), 1);
    in_window.now = 10200;
    EXPECT_EQ(pol.gateLoad(in_window).gate, Gate::Allow);

    // Past the apply point the drain lands on the next gate check:
    // mirror refreshed, cached verdict dies, the load blocks.
    SpecContext after = ctxFor(pc, directMapVa(5), 1);
    after.now = 10600;
    EXPECT_EQ(pol.gateLoad(after).gate, Gate::Block);
    EXPECT_EQ(pol.pendingRevocations(), 0u);
    EXPECT_FALSE(pol.dsvmtOf(3).queryPfn(5));
    EXPECT_EQ(steadyGate(pol, after), Gate::Block);
}

TEST_F(PerspFixture, BlockedWakeRechecksWhenTimedUpdatesLand)
{
    // A pending revocation lands, and a fleet flip becomes visible, at
    // the first gate check past a known cycle. Every check reads the
    // clock for both, so a blocked load must be re-checked by then.
    own.assign(5, 3);
    PerspectiveConfig cfg;
    cfg.revocationLatency = 500;
    PerspectivePolicy pol(own, cfg);
    sim::Cycle clock = 10000;
    pol.setClock(&clock);
    IsvView view(prog); // kf not included: a steady ISV block
    pol.registerContext(1, 3, &view);
    Addr pc = prog.func(kf).instAddr(0);
    ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Block);

    own.assign(5, 4); // shootdown lands at 10500
    SpecContext c = ctxFor(pc, directMapVa(5), 1);
    c.now = 10100;
    Verdict v = pol.gateLoad(c);
    ASSERT_EQ(v.gate, Gate::Block);
    EXPECT_EQ(v.wake.recheckAt, 10500u);

    clock = 10050;
    sim::Cycle visible = 10050 + pol.fleetTighten(kernel::kFleetBlockUnknown);
    ASSERT_LT(visible, 10500u);
    v = pol.gateLoad(c);
    ASSERT_EQ(v.gate, Gate::Block);
    EXPECT_EQ(v.wake.recheckAt, visible);
}

TEST_F(PerspFixture, FlushPendingRevocationsClosesWindowNow)
{
    own.assign(5, 3);
    PerspectiveConfig cfg;
    cfg.revocationLatency = 1'000'000;
    PerspectivePolicy pol(own, cfg);
    sim::Cycle clock = 1000;
    pol.setClock(&clock);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    Addr pc = prog.func(kf).instAddr(0);
    ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Allow);

    own.assign(5, 4);
    ASSERT_EQ(pol.pendingRevocations(), 1u);
    // An explicit flush (the synchronous-shootdown escape hatch)
    // applies everything pending regardless of the clock.
    pol.flushPendingRevocations();
    EXPECT_EQ(pol.pendingRevocations(), 0u);
    EXPECT_FALSE(pol.dsvmtOf(3).queryPfn(5));
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, NullClockKeepsRevocationSynchronous)
{
    // Without a wired clock the latency knob is inert: ownership
    // changes land synchronously, exactly the legacy contract every
    // static configuration relies on.
    own.assign(5, 3);
    PerspectiveConfig cfg;
    cfg.revocationLatency = 500;
    PerspectivePolicy pol(own, cfg);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    Addr pc = prog.func(kf).instAddr(0);
    ASSERT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Allow);
    own.assign(5, 4);
    EXPECT_EQ(pol.pendingRevocations(), 0u);
    EXPECT_FALSE(pol.dsvmtOf(3).queryPfn(5));
    EXPECT_EQ(steadyGate(pol, ctxFor(pc, directMapVa(5), 1)),
              Gate::Block);
}

TEST_F(PerspFixture, WarmAccessFillsWithoutAccounting)
{
    checkWarmAccessContract(false);
}

TEST_F(PerspFixture, WarmAccessHonorsFleetAdminView)
{
    checkWarmAccessContract(true);
}

TEST_F(PerspFixture, WarmedSetEvictsOldestFillAfterLookups)
{
    // Warming replaces in fill order, as the detailed path does: a
    // warm lookup that hits the oldest page does not save it.
    PerspectiveConfig cfg;
    cfg.dsvCacheEntries = 4; // one 4-way set
    PerspectivePolicy pol(own, cfg);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    const Addr pc = prog.func(kf).instAddr(0);
    for (kernel::Pfn pfn = 5; pfn <= 9; ++pfn)
        own.assign(pfn, 3);
    for (kernel::Pfn pfn = 5; pfn <= 8; ++pfn)
        pol.warmAccess(ctxFor(pc, directMapVa(pfn), 1));
    pol.warmAccess(ctxFor(pc, directMapVa(5), 1)); // hits page 5
    pol.warmAccess(ctxFor(pc, directMapVa(9), 1));
    EXPECT_FALSE(pol.dsvCache().lookup(directMapVa(5), 1, 1000, false).hit);
    for (kernel::Pfn pfn = 6; pfn <= 9; ++pfn)
        EXPECT_TRUE(pol.dsvCache().lookup(directMapVa(pfn), 1, 1000, false)
                        .hit)
            << pfn;
}

TEST_F(PerspFixture, StaleAllowCountsUnderSyncedFleetBlockUnknown)
{
    // blockUnknown is off in the static configuration and raised by a
    // synced fleet flip. A frame released to the unknown domain inside
    // an open revocation window is then a stale allow, exactly as it
    // is with a static blockUnknown.
    own.assign(5, 3);
    PerspectiveConfig cfg;
    cfg.blockUnknown = false;
    cfg.revocationLatency = 500;
    PerspectivePolicy pol(own, cfg);
    StatSet stats;
    pol.setStats(&stats);
    sim::Cycle clock = 1000;
    pol.setClock(&clock);
    IsvView view(prog);
    view.includeFunction(kf);
    pol.registerContext(1, 3, &view);
    const Addr pc = prog.func(kf).instAddr(0);
    SpecContext c = ctxFor(pc, directMapVa(5), 1);
    c.now = clock + pol.fleetTighten(kernel::kFleetBlockUnknown);
    ASSERT_EQ(steadyGate(pol, c), Gate::Allow); // syncs the flip

    clock = 20000;
    own.release(5);
    ASSERT_EQ(pol.pendingRevocations(), 1u);
    SpecContext in_window = ctxFor(pc, directMapVa(5), 1);
    in_window.now = 20200;
    EXPECT_EQ(pol.gateLoad(in_window).gate, Gate::Allow);
    EXPECT_EQ(stats.get("perspective.revocation.stale_allows"), 1u);
}
