/**
 * @file
 * Gate-elision oracle (DESIGN §5.2). The pipeline skips a blocked
 * load's re-gate until the Block verdict's wake fires, and that
 * shortcut must be invisible. Each scenario here runs twice: once
 * with the real policy, and once with the same policy wrapped so
 * that every Block wakes every cycle (the reference cadence). Every
 * counter, every histogram bucket, the cycle count and the leakage
 * ledger's totals must match — except gate.*, which counts the
 * elisions themselves.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "attacks/poc.hh"
#include "kernel/fleet.hh"
#include "kernel/process.hh"
#include "workloads/experiment.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::workloads;
using kernel::Sys;
using sim::Addr;

namespace
{

/** Forwards everything to @p inner, but a Block wakes every cycle. */
class EveryCyclePolicy : public sim::SpeculationPolicy
{
  public:
    explicit EveryCyclePolicy(sim::SpeculationPolicy &inner)
        : inner_(inner)
    {
    }

    sim::Verdict
    gateLoad(const sim::SpecContext &ctx) override
    {
        return {inner_.gateLoad(ctx).gate, sim::GateWake{}};
    }
    const char *name() const override { return inner_.name(); }
    sim::Cycle kernelEntryCost() const override
    {
        return inner_.kernelEntryCost();
    }
    sim::Cycle kernelExitCost() const override
    {
        return inner_.kernelExitCost();
    }
    bool retpoline() const override { return inner_.retpoline(); }
    bool shadowStack() const override { return inner_.shadowStack(); }
    bool
    allowFunctionalPhases() const override
    {
        return inner_.allowFunctionalPhases();
    }
    void
    warmAccess(const sim::SpecContext &ctx) override
    {
        inner_.warmAccess(ctx);
    }
    sim::LeakWindow
    updateWindow(Addr va, sim::Asid asid) const override
    {
        return inner_.updateWindow(va, asid);
    }
    void resetAccounting() override { inner_.resetAccounting(); }
    std::optional<sim::LookupAccounting>
    accounting() const override
    {
        return inner_.accounting();
    }
    void setStats(sim::StatSet *stats) override { inner_.setStats(stats); }

  private:
    sim::SpeculationPolicy &inner_;
};

/** What one run of a scenario observed. */
struct Observed
{
    sim::Cycle cycles = 0;
    sim::StatSet stats;
    sim::LeakageSummary leakage;
};

/** A scenario installs @p pol (the real policy, or its every-cycle
 * wrapper) through the callback it is given. */
using Install = std::function<void(Experiment &, sim::SpeculationPolicy &)>;
using Scenario = std::function<Observed(const Install &)>;

Observed
observe(Experiment &e)
{
    return {e.pipeline().now(), e.pipeline().stats(),
            e.pipeline().leakLedger().summary()};
}

bool
isGateStat(const std::string &name)
{
    return name.rfind("gate.", 0) == 0;
}

void
expectSameOutsideGate(const Observed &ref, const Observed &got)
{
    EXPECT_EQ(ref.cycles, got.cycles);

    std::map<std::string, std::uint64_t> rc, gc;
    for (const auto &[k, v] : ref.stats.all())
        if (!isGateStat(k))
            rc[k] = v;
    for (const auto &[k, v] : got.stats.all())
        if (!isGateStat(k))
            gc[k] = v;
    EXPECT_EQ(rc, gc);
    // The elided run must actually have elided something, or the
    // comparison shows nothing.
    EXPECT_GT(got.stats.get("gate.elided"), 0u);
    EXPECT_EQ(ref.stats.get("gate.elided"), 0u);

    const auto &rh = ref.stats.allHistograms();
    const auto &gh = got.stats.allHistograms();
    ASSERT_EQ(rh.size(), gh.size());
    for (const auto &[name, h] : rh) {
        SCOPED_TRACE("histogram " + name);
        auto it = gh.find(name);
        ASSERT_NE(it, gh.end());
        const sim::Histogram &g = it->second;
        EXPECT_EQ(h.count(), g.count());
        EXPECT_EQ(h.min(), g.min());
        EXPECT_EQ(h.max(), g.max());
        EXPECT_DOUBLE_EQ(h.mean(), g.mean());
        for (unsigned b = 0; b < sim::Histogram::kNumBuckets; ++b)
            EXPECT_EQ(h.bucket(b), g.bucket(b)) << "bucket " << b;
    }

    const sim::LeakageSummary &rl = ref.leakage, &gl = got.leakage;
    EXPECT_EQ(rl.secretLoads, gl.secretLoads);
    EXPECT_EQ(rl.bytesAtRisk, gl.bytesAtRisk);
    EXPECT_EQ(rl.transmissions, gl.transmissions);
    EXPECT_EQ(rl.bytesTransmitted, gl.bytesTransmitted);
    EXPECT_EQ(rl.taintOverflows, gl.taintOverflows);
    EXPECT_EQ(rl.channelCacheInstall, gl.channelCacheInstall);
    EXPECT_EQ(rl.channelTlbFill, gl.channelTlbFill);
    for (unsigned w = 0; w < sim::kNumLeakWindows; ++w) {
        SCOPED_TRACE(sim::leakWindowName(static_cast<sim::LeakWindow>(w)));
        EXPECT_EQ(rl.windows[w].secretLoads, gl.windows[w].secretLoads);
        EXPECT_EQ(rl.windows[w].transmissions,
                  gl.windows[w].transmissions);
        EXPECT_EQ(rl.windows[w].bytesTransmitted,
                  gl.windows[w].bytesTransmitted);
    }
}

/** Run @p s with the every-cycle reference and with elision. */
void
checkScenario(const Scenario &s)
{
    std::optional<EveryCyclePolicy> wrapper;
    Observed ref = s([&wrapper](Experiment &e,
                                sim::SpeculationPolicy &pol) {
        wrapper.emplace(pol);
        e.pipeline().setPolicy(&*wrapper);
    });
    Observed got = s([](Experiment &e, sim::SpeculationPolicy &pol) {
        e.pipeline().setPolicy(&pol);
    });
    expectSameOutsideGate(ref, got);
}

const WorkloadProfile &
lebenchNamed(const char *name)
{
    static const auto suite = lebenchSuite();
    for (const auto &w : suite)
        if (w.name == name)
            return w;
    throw std::runtime_error(std::string("no profile ") + name);
}

/**
 * A private Perspective policy over both tenants of @p e, leased as
 * the races in attacks/races.cc lease theirs (see LeasedPolicy
 * there): a policy built with the Experiment would see
 * RevocationRace's frame grant deferred.
 */
core::PerspectivePolicy &
leasePolicy(Experiment &e, std::optional<core::PerspectivePolicy> &slot,
            core::PerspectiveConfig cfg)
{
    auto &ks = e.kernelState();
    slot.emplace(ks.ownership(), cfg, "oracle");
    slot->setClock(e.pipeline().cyclePtr());
    for (kernel::Pid p : {e.mainPid(), e.victimPid()}) {
        const auto &t = ks.task(p);
        slot->registerContext(t.asid, t.domain, e.isvView());
    }
    return *slot;
}

} // namespace

TEST(GateOracle, PerspectiveSchemesOnGoldenWorkloads)
{
    for (const char *w : {"getpid", "mmap", "read", "ctx-switch"}) {
        for (Scheme s : {Scheme::PerspectiveStatic, Scheme::Perspective,
                         Scheme::PerspectivePlusPlus}) {
            SCOPED_TRACE(std::string(w) + " / " + schemeName(s));
            checkScenario([&](const Install &install) {
                Experiment e(lebenchNamed(w), s, 42);
                install(e, *e.policy());
                RunResult r = e.run(30, 3); // the LEBench grid's cell
                return Observed{r.cycles, r.stats, r.leakage};
            });
        }
    }
}

TEST(GateOracle, NginxWithSmallViewCaches)
{
    // The cache-size ablation's smallest cells, built as
    // bench_ablation builds them: frequent misses put several loads
    // on one in-flight fill.
    for (unsigned entries : {32u, 64u}) {
        SCOPED_TRACE(std::to_string(entries) + " entries");
        checkScenario([&](const Install &install) {
            core::PerspectiveConfig cfg;
            cfg.isvCacheEntries = entries;
            cfg.dsvCacheEntries = entries;
            Experiment e(nginxProfile(), Scheme::Perspective, 42, {},
                         cfg);
            install(e, *e.policy());
            RunResult r = e.run(30, 3);
            return Observed{r.cycles, r.stats, r.leakage};
        });
    }
}

TEST(GateOracle, MemcachedTenantsTaggedAndFlushed)
{
    // The ASID-tagging ablation's cells: two tenants' requests
    // interleaved, with ASID-tagged view caches and with a flush on
    // every switch.
    for (bool flush : {false, true}) {
        SCOPED_TRACE(flush ? "flush-on-switch" : "asid-tagged");
        checkScenario([&](const Install &install) {
            core::PerspectiveConfig cfg;
            cfg.flushOnContextSwitch = flush;
            Experiment e(memcachedProfile(), Scheme::Perspective, 42, {},
                         cfg);
            install(e, *e.policy());
            for (unsigned i = 0; i < 24; ++i)
                e.runRequestAs(i % 2 ? e.victimPid() : e.mainPid());
            return observe(e);
        });
    }
}

TEST(GateOracle, RevocationRace)
{
    // A frame changes hands while the attacker reads it; the deferred
    // shootdown lands mid-run, between two gate checks of whatever
    // loads are blocked at the time.
    for (sim::Cycle budget : {sim::Cycle{1'000}, sim::Cycle{5'000}}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        checkScenario([&](const Install &install) {
            Experiment e(attacks::pocProfile(), Scheme::Perspective, 42);
            auto &ks = e.kernelState();
            auto pfn =
                ks.buddy().allocPages(0, ks.task(e.mainPid()).domain);
            if (!pfn)
                throw std::runtime_error("out of memory");
            core::PerspectiveConfig cfg;
            cfg.revocationLatency = budget;
            std::optional<core::PerspectivePolicy> pol;
            install(e, leasePolicy(e, pol, cfg));

            Addr va = kernel::directMapVa(*pfn);
            ks.ownership().assign(*pfn, ks.task(e.victimPid()).domain);
            e.memory().write(va, 0x77);
            attacks::mistrainV1(e, Sys::Ioctl);
            attacks::probeV1(e, Sys::Ioctl, va, 0x77, 3);
            EXPECT_EQ(pol->pendingRevocations(), 0u);
            return observe(e);
        });
    }
}

TEST(GateOracle, FleetFlip)
{
    // The admin forces blockUnknown on while the attacker reads an
    // unknown-provenance global. The flip lands mid-run, so contexts
    // sync at their first gate check past its visibility point, which
    // can fall while every load that would gate sits blocked.
    for (sim::Cycle at : {sim::Cycle{297}, sim::Cycle{1'752}}) {
        SCOPED_TRACE("flip at " + std::to_string(at));
        checkScenario([&](const Install &install) {
            Experiment e(attacks::pocProfile(), Scheme::Perspective, 42);
            core::PerspectiveConfig cfg;
            cfg.blockUnknown = false;
            std::optional<core::PerspectivePolicy> pol;
            install(e, leasePolicy(e, pol, cfg));

            Addr gva = e.kernelState().globalVa(7);
            e.memory().write(gva, 0x4d);
            bool flipped = false;
            e.pipeline().scheduleAt(at, [&pol, &flipped] {
                pol->fleetTighten(kernel::kFleetBlockUnknown);
                flipped = true;
            });
            attacks::mistrainV1(e, Sys::Ioctl);
            attacks::probeV1(e, Sys::Ioctl, gva, 0x4d, 3);
            EXPECT_TRUE(flipped);
            return observe(e);
        });
    }
}
