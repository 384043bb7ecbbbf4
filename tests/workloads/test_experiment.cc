#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "core/perspective.hh"
#include "sim/trace.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::workloads;
using kernel::Sys;

TEST(Profiles, LeBenchSuiteShape)
{
    auto suite = lebenchSuite();
    EXPECT_GE(suite.size(), 15u);
    for (const auto &w : suite) {
        EXPECT_FALSE(w.request.empty()) << w.name;
        EXPECT_FALSE(staticSyscallSet(w).empty()) << w.name;
    }
}

TEST(Profiles, DatacenterKernelFractionKnobs)
{
    // httpd must have the largest userspace share (lowest kernel
    // fraction target of the four).
    auto apps = datacenterSuite();
    ASSERT_EQ(apps.size(), 4u);
    EXPECT_GT(httpdProfile().userPadIters,
              memcachedProfile().userPadIters);
}

TEST(Profiles, StartupTraceCoversLoaderSyscalls)
{
    auto t = processStartupTrace();
    bool has_mmap = false, has_open = false;
    for (const auto &i : t) {
        has_mmap |= i.sys == Sys::Mmap;
        has_open |= i.sys == Sys::Open;
    }
    EXPECT_TRUE(has_mmap);
    EXPECT_TRUE(has_open);
    EXPECT_GT(t.size(), 15u);
}

TEST(Experiment, UnsafeRunProducesWork)
{
    Experiment e(httpdProfile(), Scheme::Unsafe);
    auto r = e.run(5, 1);
    EXPECT_GT(r.cycles, 1000u);
    EXPECT_GT(r.instructions, 1000u);
    EXPECT_GT(r.kernelInstructions, 0u);
    EXPECT_LT(r.kernelFraction(), 1.0);
    EXPECT_EQ(r.fences, 0u); // unsafe never fences
}

TEST(Experiment, KernelFractionNearTargets)
{
    // Chapter 7: httpd 50%, nginx 65%, memcached 65%, redis 53%.
    struct Target
    {
        WorkloadProfile w;
        double frac;
    };
    for (const auto &[w, frac] :
         {Target{httpdProfile(), 0.50}, Target{nginxProfile(), 0.65},
          Target{memcachedProfile(), 0.65},
          Target{redisProfile(), 0.53}}) {
        Experiment e(w, Scheme::Unsafe);
        auto r = e.run(8, 2);
        EXPECT_NEAR(r.kernelFraction(), frac, 0.12) << w.name;
    }
}

TEST(Experiment, PerspectiveHasViewAndPolicy)
{
    Experiment e(redisProfile(), Scheme::Perspective);
    ASSERT_NE(e.isvView(), nullptr);
    ASSERT_NE(e.perspectivePolicy(), nullptr);
    EXPECT_GT(e.isvView()->numFunctions(), 100u);
    EXPECT_LT(e.isvView()->numFunctions(),
              e.image().numKernelFunctions() / 10);
}

TEST(Experiment, PerspectiveConfigReachesTheRunningPolicy)
{
    // The constructor's config configures the policy the pipeline
    // runs, not a second, idle one.
    core::PerspectiveConfig cfg;
    cfg.isvCacheEntries = 32;
    cfg.blockUnknown = false;
    ASSERT_FALSE(cfg == core::PerspectiveConfig{});
    Experiment e(redisProfile(), Scheme::Perspective, 42, {}, cfg);
    ASSERT_NE(e.perspectivePolicy(), nullptr);
    EXPECT_EQ(e.perspectivePolicy(), e.pipeline().policy());
    EXPECT_TRUE(e.perspectivePolicy()->config() == cfg);

    // A scheme without a PerspectivePolicy has nothing to configure.
    EXPECT_THROW(Experiment(redisProfile(), Scheme::Fence, 42, {}, cfg),
                 std::invalid_argument);
}

TEST(Experiment, StaticViewLargerThanDynamic)
{
    Experiment stat(redisProfile(), Scheme::PerspectiveStatic);
    Experiment dyn(redisProfile(), Scheme::Perspective);
    EXPECT_GT(stat.isvView()->numFunctions(),
              dyn.isvView()->numFunctions());
}

TEST(Experiment, PlusPlusViewHasNoGadgetFunctions)
{
    Experiment e(redisProfile(), Scheme::PerspectivePlusPlus);
    for (auto f : e.image().functionsWithGadgets())
        EXPECT_FALSE(e.isvView()->containsFunction(f));
}

TEST(Experiment, FenceSlowerThanUnsafe)
{
    auto poll = lebenchSuite();
    const WorkloadProfile *w = nullptr;
    for (const auto &p : poll) {
        if (p.name == "poll")
            w = &p;
    }
    ASSERT_NE(w, nullptr);
    Experiment unsafe_e(*w, Scheme::Unsafe);
    Experiment fence_e(*w, Scheme::Fence);
    auto ru = unsafe_e.run(10, 2);
    auto rf = fence_e.run(10, 2);
    EXPECT_GT(rf.cycles, ru.cycles * 2); // poll is FENCE's worst case
}

TEST(Experiment, PerspectiveCloseToUnsafe)
{
    Experiment unsafe_e(memcachedProfile(), Scheme::Unsafe);
    Experiment persp_e(memcachedProfile(), Scheme::Perspective);
    auto ru = unsafe_e.run(10, 2);
    auto rp = persp_e.run(10, 2);
    double overhead = double(rp.cycles) / ru.cycles - 1.0;
    EXPECT_LT(overhead, 0.08);
    EXPECT_GT(overhead, -0.05);
}

TEST(Experiment, CacheHitRatesNear99Percent)
{
    Experiment e(nginxProfile(), Scheme::Perspective);
    auto r = e.run(10, 3);
    EXPECT_GT(r.isvCacheHitRate, 0.9);
    EXPECT_GT(r.dsvCacheHitRate, 0.9);
}

TEST(Experiment, WarmupDoesNotPolluteMeasuredCounters)
{
    // Regression: warmup iterations must not leak into the measured
    // counters. For a deterministic workload the measured portion of
    // a warmed-up run reports exactly the counters of a cold run of
    // the same length — both through the RunResult fields and the
    // StatSet snapshot it carries.
    Experiment cold(redisProfile(), Scheme::Perspective);
    Experiment warm(redisProfile(), Scheme::Perspective);
    auto rc = cold.run(5, 0);
    auto rw = warm.run(5, 2);
    EXPECT_EQ(rc.instructions, rw.instructions);
    EXPECT_EQ(rc.kernelInstructions, rw.kernelInstructions);
    EXPECT_EQ(rc.stats.get("committed"),
              rw.stats.get("committed"));
    EXPECT_EQ(rw.stats.get("committed"), rw.instructions);
    // Warmup may legitimately change cycles (warm predictors and
    // caches), but never the committed instruction stream.
    EXPECT_GT(rw.instructions, 0u);
}

TEST(Experiment, TelemetrySurvivesWarmupReset)
{
    // The telemetry registered in the Pipeline constructor (histogram
    // handles) must survive the stats clear between warmup and
    // measurement: a warmed-up run reports the same measured
    // histogram populations as a cold run of the same length, and
    // the histograms are present (non-empty) either way.
    Experiment cold(redisProfile(), Scheme::Perspective);
    Experiment warm(redisProfile(), Scheme::Perspective);
    auto rc = cold.run(5, 0);
    auto rw = warm.run(5, 3);

    for (const char *name :
         {"rob_occupancy", "fence_stall_cycles", "squash_depth",
          "load_issue_wait"}) {
        ASSERT_TRUE(rc.stats.allHistograms().count(name)) << name;
        ASSERT_TRUE(rw.stats.allHistograms().count(name)) << name;
    }
    EXPECT_GT(
        rw.stats.allHistograms().at("rob_occupancy").count(), 0u);
    EXPECT_GT(
        rw.stats.allHistograms().at("load_issue_wait").count(), 0u);

    // Issue-time distributions cover wrong-path work too, so cold vs
    // warm populations differ; two identical warmed-up runs must
    // agree exactly (telemetry is deterministic).
    Experiment warm2(redisProfile(), Scheme::Perspective);
    auto rw2 = warm2.run(5, 3);
    const auto &ha = rw.stats.allHistograms().at("load_issue_wait");
    const auto &hb = rw2.stats.allHistograms().at("load_issue_wait");
    EXPECT_EQ(ha.count(), hb.count());
    EXPECT_DOUBLE_EQ(ha.mean(), hb.mean());
}

TEST(Experiment, ViewCacheMissBurstsAreRecorded)
{
    // PerspectivePolicy samples completed ISV/DSV miss-run lengths;
    // a cold run with real misses must record at least one burst.
    Experiment e(nginxProfile(), Scheme::Perspective);
    auto r = e.run(10, 0);
    ASSERT_TRUE(r.stats.allHistograms().count("isv_miss_burst"));
    EXPECT_GT(r.stats.allHistograms().at("isv_miss_burst").count(),
              0u);
}

TEST(Experiment, HitRatesCoverOnlyMeasuredPhase)
{
    // After the warmup/measurement split, the ISV/DSV hit rates in
    // the result reflect the measured phase alone: with entries
    // prefilled by warmup, a short measured run must be near-perfect.
    Experiment e(nginxProfile(), Scheme::Perspective);
    auto r = e.run(3, 5);
    EXPECT_GT(r.isvCacheHitRate, 0.95);
    EXPECT_GT(r.dsvCacheHitRate, 0.95);
}

TEST(Experiment, LeasedPolicyReportsItsOwnMeasuredLookups)
{
    // A cell that leases its own PerspectivePolicy onto the pipeline
    // reports that policy's lookups, over the measured iterations
    // only. Small view caches
    // keep the DSVMT walked in both phases.
    constexpr unsigned kWarmup = 2, kIters = 4;
    core::PerspectiveConfig cfg;
    cfg.isvCacheEntries = 32;
    cfg.dsvCacheEntries = 32;
    auto lease = [&cfg](Experiment &e,
                        std::optional<core::PerspectivePolicy> &slot) {
        slot.emplace(e.kernelState().ownership(), cfg, "leased");
        const auto &t = e.kernelState().task(e.mainPid());
        slot->registerContext(t.asid, t.domain, e.isvView());
        e.pipeline().setPolicy(&*slot);
    };

    Experiment a(nginxProfile(), Scheme::Perspective);
    std::optional<core::PerspectivePolicy> pa;
    lease(a, pa);
    RunResult r = a.run(kIters, kWarmup);

    // The same cell stepped by hand, with the leased policy's
    // counters read at the warmup boundary and at the end.
    Experiment b(nginxProfile(), Scheme::Perspective);
    std::optional<core::PerspectivePolicy> pb;
    lease(b, pb);
    for (unsigned i = 0; i < kWarmup; ++i)
        b.runRequestOnPipeline();
    const auto isvHits = pb->isvCache().hits();
    const auto isvMisses = pb->isvCache().misses();
    const auto dsvHits = pb->dsvCache().hits();
    const auto dsvMisses = pb->dsvCache().misses();
    const sim::LookupAccounting warm = *pb->accounting();
    for (unsigned i = 0; i < kIters; ++i)
        b.runRequestOnPipeline();
    const sim::LookupAccounting end = *pb->accounting();

    auto rate = [](std::uint64_t hits, std::uint64_t misses) {
        return static_cast<double>(hits) / (hits + misses);
    };
    EXPECT_GT(warm.dsvmtMruLookups, 0u);
    EXPECT_GT(r.stats.get("dsvmt.mru.lookups"), 0u);
    EXPECT_EQ(r.stats.get("dsvmt.mru.lookups"),
              end.dsvmtMruLookups - warm.dsvmtMruLookups);
    EXPECT_EQ(r.stats.get("dsvmt.mru.hits"),
              end.dsvmtMruHits - warm.dsvmtMruHits);
    EXPECT_DOUBLE_EQ(r.isvCacheHitRate,
                     rate(pb->isvCache().hits() - isvHits,
                          pb->isvCache().misses() - isvMisses));
    EXPECT_DOUBLE_EQ(r.dsvCacheHitRate,
                     rate(pb->dsvCache().hits() - dsvHits,
                          pb->dsvCache().misses() - dsvMisses));
    EXPECT_NE(r.isvCacheHitRate, end.isvHitRate); // warmup excluded
}

TEST(Experiment, DeterministicAcrossRuns)
{
    Experiment a(redisProfile(), Scheme::Perspective);
    Experiment b(redisProfile(), Scheme::Perspective);
    auto ra = a.run(5, 1);
    auto rb = b.run(5, 1);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
}

TEST(Experiment, AsidTaggingSurvivesContextSwitches)
{
    // Section 6.2: ISV/DSV cache entries are ASID-tagged so context
    // switches need no flush. Interleave two tenants' requests and
    // compare hit rates against an untagged (flush-on-switch)
    // configuration.
    auto interleaved_hit_rate = [](bool flush_on_switch) {
        core::PerspectiveConfig cfg;
        cfg.flushOnContextSwitch = flush_on_switch;
        Experiment e(memcachedProfile(), Scheme::Perspective, 42, {},
                     cfg);
        for (unsigned i = 0; i < 12; ++i) {
            e.runRequestAs(i % 2 ? e.victimPid() : e.mainPid());
        }
        core::PerspectivePolicy &pol = *e.perspectivePolicy();
        return std::make_pair(pol.isvCache().hitRate(),
                              pol.dsvCache().hitRate());
    };

    auto [isv_tagged, dsv_tagged] = interleaved_hit_rate(false);
    auto [isv_flush, dsv_flush] = interleaved_hit_rate(true);
    EXPECT_GT(isv_tagged, isv_flush);
    EXPECT_GT(dsv_tagged, dsv_flush);
    EXPECT_GT(isv_tagged, 0.9);
    EXPECT_GT(dsv_tagged, 0.9);
}

TEST(Experiment, RunRequestAsSwitchesContext)
{
    Experiment e(redisProfile(), Scheme::Perspective);
    auto r1 = e.runRequestAs(e.mainPid());
    EXPECT_EQ(e.pipeline().asid(),
              e.kernelState().task(e.mainPid()).asid);
    auto r2 = e.runRequestAs(e.victimPid());
    EXPECT_EQ(e.pipeline().asid(),
              e.kernelState().task(e.victimPid()).asid);
    EXPECT_GT(r1.instructions, 0u);
    EXPECT_GT(r2.instructions, 0u);
}

TEST(Experiment, MidRunHandoffCompletes)
{
    // A mid-run ownership handoff (the dynamic-update driver): the
    // policy listener revokes the page while loads from it may be
    // blocked in-ROB holding stale verdicts, and the run must
    // complete with the verdicts re-resolved — no dangling wake or
    // MRU pointer — and the callback queue drained.
    WorkloadProfile mmap;
    for (const auto &w : lebenchSuite())
        if (w.name == "mmap")
            mmap = w;
    ASSERT_EQ(mmap.name, "mmap");
    Experiment e(mmap, Scheme::Perspective, 42);
    auto &ks = e.kernelState();
    kernel::Pfn ctx_pfn = ks.task(e.mainPid()).ctxPfn;
    kernel::DomainId foreign = ks.task(e.victimPid()).domain;
    ASSERT_NE(ks.ownership().ownerOf(ctx_pfn), foreign);

    e.pipeline().scheduleAt(
        e.pipeline().now() + 1000,
        [&ks, ctx_pfn, foreign] {
            ks.ownership().assign(ctx_pfn, foreign);
        });
    EXPECT_EQ(e.pipeline().pendingScheduled(), 1u);
    RunResult r = e.run(4, 1);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_EQ(ks.ownership().ownerOf(ctx_pfn), foreign);
    EXPECT_EQ(e.pipeline().pendingScheduled(), 0u);
}

/**
 * Sampled mmap cells at the sweep defaults (30 measured + 3 warmup
 * iterations, DESIGN §5.8 default sampling) pin their raw detailed-
 * window cycles. Several requests end inside a functional phase;
 * those must stop the clock on the halt cycle rather than wait out
 * a squashed load's completion, which once added ~100 cycles each.
 */
TEST(Experiment, SampledMeasuredCyclesPinnedForMmap)
{
    struct Pin
    {
        Scheme scheme;
        std::uint64_t seed;
        std::uint64_t measuredCycles;
    };
    constexpr Pin kPins[] = {
        {Scheme::Unsafe, 42, 1693}, {Scheme::Stt, 42, 1693},
        {Scheme::Spot, 42, 1793},   {Scheme::Unsafe, 7, 1699},
        {Scheme::Stt, 7, 1699},     {Scheme::Spot, 7, 1799},
    };
    WorkloadProfile mmap;
    for (const auto &w : lebenchSuite())
        if (w.name == "mmap")
            mmap = w;
    ASSERT_EQ(mmap.name, "mmap");
    for (const Pin &p : kPins) {
        SCOPED_TRACE(std::string(schemeName(p.scheme)) + " seed " +
                     std::to_string(p.seed));
        Experiment e(mmap, p.scheme, p.seed,
                     sim::SamplingParams::parse("1"));
        RunResult r = e.run(30, 3);
        ASSERT_TRUE(r.sampling.active);
        EXPECT_EQ(r.sampling.measuredCycles, p.measuredCycles);
    }
}

TEST(Experiment, DirectConstructionIgnoresSampleEnvironment)
{
    // PERSPECTIVE_SAMPLE is read by SweepCell alone: an Experiment
    // built directly runs exact unless it is handed sampling params.
    WorkloadProfile mmap;
    for (const auto &w : lebenchSuite())
        if (w.name == "mmap")
            mmap = w;
    ASSERT_EQ(mmap.name, "mmap");
    ASSERT_EQ(::setenv("PERSPECTIVE_SAMPLE", "1", 1), 0);
    const sim::SamplingParams from_env = sim::SamplingParams::fromEnv();
    Experiment exact(mmap, Scheme::Unsafe);
    RunResult r = exact.run(30, 3);
    Experiment sampled(mmap, Scheme::Unsafe, 42, from_env);
    RunResult s = sampled.run(30, 3);
    ::unsetenv("PERSPECTIVE_SAMPLE");
    EXPECT_FALSE(r.sampling.active);
    EXPECT_TRUE(s.sampling.active);
}

TEST(Experiment, TracingIsObservationOnly)
{
    // The event log only observes. An exact cell runs identically
    // with and without it, and installing it pins a sampled cell to
    // the detailed path, where it lands on the exact cell's numbers.
    WorkloadProfile getpid;
    for (const auto &w : lebenchSuite())
        if (w.name == "getpid")
            getpid = w;
    ASSERT_EQ(getpid.name, "getpid");

    struct Cell
    {
        RunResult result;
        bool sampledMode = false;
    };
    auto run = [&getpid](sim::SamplingParams sp, bool traced) {
        sim::trace::EventLog log;
        // Detach before the log dies, on a throw too.
        struct Detach
        {
            ~Detach() { sim::trace::setEventLog(nullptr); }
        } detach;
        if (traced)
            sim::trace::setEventLog(&log);
        Experiment e(getpid, Scheme::Perspective, 42, sp);
        Cell c{e.run(10, 3), e.pipeline().sampledMode()};
        EXPECT_EQ(log.size() > 0, traced);
        return c;
    };
    auto expectSame = [](const RunResult &a, const RunResult &b) {
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.stats.all(), b.stats.all());
        ASSERT_EQ(a.stats.allHistograms().size(),
                  b.stats.allHistograms().size());
        for (const auto &[name, h] : a.stats.allHistograms()) {
            const sim::Histogram &o = b.stats.allHistograms().at(name);
            EXPECT_EQ(h.count(), o.count()) << name;
            EXPECT_EQ(h.min(), o.min()) << name;
            EXPECT_EQ(h.max(), o.max()) << name;
            EXPECT_DOUBLE_EQ(h.mean(), o.mean()) << name;
            for (unsigned k = 0; k < sim::Histogram::kNumBuckets; ++k)
                EXPECT_EQ(h.bucket(k), o.bucket(k)) << name << " " << k;
        }
    };

    const sim::SamplingParams exactSp;
    const sim::SamplingParams sampledSp = sim::SamplingParams::parse("1");
    Cell exact = run(exactSp, false);
    Cell exactTraced = run(exactSp, true);
    ASSERT_FALSE(exact.sampledMode);
    {
        SCOPED_TRACE("exact, traced");
        expectSame(exact.result, exactTraced.result);
    }

    // Untraced, the sampled cell does sample; traced, it must not.
    EXPECT_TRUE(run(sampledSp, false).sampledMode);
    Cell sampledTraced = run(sampledSp, true);
    EXPECT_FALSE(sampledTraced.sampledMode);
    EXPECT_FALSE(sampledTraced.result.sampling.active);
    {
        SCOPED_TRACE("sampled, traced");
        expectSame(exact.result, sampledTraced.result);
    }
}
