#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>

#include "harness/chrome_trace.hh"
#include "harness/json.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"

using namespace perspective;
using namespace perspective::harness;
using namespace perspective::workloads;

// ---- ThreadPool ----------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineModeRunsOnSubmittingThread)
{
    ThreadPool pool(0);
    std::thread::id submitter = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(ran_on, submitter);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, TaskExceptionRethrownFromWait)
{
    // Regression: a throwing task used to escape workerLoop, leaving
    // the in-flight count unbalanced (wait() hung) and terminating
    // the worker. Now the first exception is captured and rethrown
    // from wait(); every other task still runs.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i)
        pool.submit([&count, i] {
            ++count;
            if (i == 5)
                throw std::runtime_error("task failed");
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 16);

    // The pool stays usable, and the error does not resurface.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 17);
}

TEST(ThreadPool, InlineModeExceptionRethrownFromWait)
{
    // Inline mode (0 threads) must follow the same contract: the
    // exception surfaces from wait(), not from submit().
    ThreadPool pool(0);
    std::atomic<int> count{0};
    pool.submit([&count] {
        ++count;
        throw std::runtime_error("inline boom");
    });
    pool.submit([&count] { ++count; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 2);
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, CurrentLaneIsPerPoolUnderNesting)
{
    // currentLane() must report the lane *in the asked pool* — 0 for
    // a pool the thread does not belong to — or an enclosing pool's
    // lane leaks into a nested pool's worker_busy accounting.
    ThreadPool outer(2);
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::set<unsigned> outerLanes;
    std::vector<unsigned> innerLanes;
    for (int i = 0; i < 2; ++i)
        outer.submit([&] {
            {
                // Rendezvous so both outer lanes are occupied (the
                // same worker cannot serve both tasks).
                std::unique_lock<std::mutex> lk(mu);
                ++arrived;
                cv.notify_all();
                cv.wait(lk, [&] { return arrived == 2; });
            }
            unsigned mine = outer.currentLane();
            ThreadPool inner(0); // inline
            unsigned innerLane = 99;
            inner.submit(
                [&] { innerLane = inner.currentLane(); });
            inner.wait();
            std::lock_guard<std::mutex> lk(mu);
            outerLanes.insert(mine);
            innerLanes.push_back(innerLane);
        });
    outer.wait();
    // The outer pool sees its own lanes through currentLane()...
    EXPECT_EQ(outerLanes, (std::set<unsigned>{0u, 1u}));
    // ...but the nested pool correctly claims neither thread.
    ASSERT_EQ(innerLanes.size(), 2u);
    EXPECT_EQ(innerLanes[0], 0u);
    EXPECT_EQ(innerLanes[1], 0u);
}

// ---- Json ----------------------------------------------------------

TEST(Json, RoundTripsScalars)
{
    Json doc = Json::parse(
        R"({"u": 18446744073709551615, "d": 1.5, "s": "a\nb",)"
        R"( "t": true, "n": null, "a": [1, 2, 3]})");
    EXPECT_EQ(doc.at("u").asUint(), 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(doc.at("d").asDouble(), 1.5);
    EXPECT_EQ(doc.at("s").asString(), "a\nb");
    EXPECT_TRUE(doc.at("t").asBool());
    EXPECT_TRUE(doc.at("n").isNull());
    EXPECT_EQ(doc.at("a").asArray().size(), 3u);

    // dump -> parse -> dump is a fixed point.
    std::string once = doc.dump(2);
    EXPECT_EQ(Json::parse(once).dump(2), once);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1} x"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

// ---- Sweep determinism --------------------------------------------

namespace
{

std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
    unsigned added = 0;
    for (const auto &w : lebenchSuite()) {
        if (w.name != "getpid" && w.name != "read" &&
            w.name != "poll")
            continue;
        for (Scheme s : {Scheme::Unsafe, Scheme::Fence}) {
            SweepCell c;
            c.profile = w;
            c.scheme = s;
            c.iterations = 4;
            c.warmup = 1;
            cells.push_back(std::move(c));
        }
        ++added;
    }
    EXPECT_EQ(added, 3u);
    return cells;
}

SweepOptions
optsWithJobs(unsigned jobs)
{
    SweepOptions o;
    o.benchName = "test_sweep";
    o.jobs = jobs;
    return o;
}

void
expectIdentical(const CellResult &a, const CellResult &b)
{
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.kernelInstructions,
              b.result.kernelInstructions);
    EXPECT_EQ(a.result.fences, b.result.fences);
    EXPECT_EQ(a.result.isvFences, b.result.isvFences);
    EXPECT_EQ(a.result.dsvFences, b.result.dsvFences);
    EXPECT_EQ(a.result.isvCacheHitRate, b.result.isvCacheHitRate);
    EXPECT_EQ(a.result.dsvCacheHitRate, b.result.dsvCacheHitRate);
    EXPECT_EQ(a.result.stats.all(), b.result.stats.all());
}

} // namespace

TEST(Sweep, ParallelGridMatchesSerialGrid)
{
    // Cells are share-nothing, so a 4-job run must produce the
    // byte-identical RunResult grid of a 1-job run, in the same
    // (grid) order.
    SweepRunner serial(optsWithJobs(1));
    SweepRunner parallel(optsWithJobs(4));
    auto grid = smallGrid();
    auto rs = serial.run(grid);
    auto rp = parallel.run(grid);
    ASSERT_EQ(rs.size(), grid.size());
    ASSERT_EQ(rp.size(), grid.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        expectIdentical(rs[i], rp[i]);
}

TEST(Sweep, ResultsArriveInGridOrder)
{
    SweepRunner runner(optsWithJobs(4));
    auto grid = smallGrid();
    auto rs = runner.run(grid);
    ASSERT_EQ(rs.size(), grid.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].workload, grid[i].profile.name);
        EXPECT_EQ(rs[i].scheme, schemeName(grid[i].scheme));
        EXPECT_GT(rs[i].result.cycles, 0u);
        EXPECT_GE(rs[i].wallSeconds, 0.0);
    }
}

TEST(Sweep, CellFailureIsCapturedNotFatal)
{
    SweepRunner runner(optsWithJobs(2));
    SweepCell bad;
    bad.profile = lebenchSuite().front();
    bad.scheme = Scheme::Unsafe;
    bad.body = [](const SweepCell &) -> RunResult {
        throw std::runtime_error("boom");
    };
    SweepCell good;
    good.profile = lebenchSuite().front();
    good.scheme = Scheme::Unsafe;
    good.iterations = 2;
    good.warmup = 0;
    auto rs = runner.run({bad, good});
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_FALSE(rs[0].ok);
    EXPECT_EQ(rs[0].error, "boom");
    EXPECT_TRUE(rs[1].ok);
    EXPECT_GT(rs[1].result.cycles, 0u);
}

TEST(Sweep, JsonEmissionRoundTripsCounters)
{
    SweepRunner runner(optsWithJobs(2));
    auto grid = smallGrid();
    auto rs = runner.run(grid);

    Json doc = Json::parse(runner.toJson().dump(2));
    EXPECT_EQ(doc.at("bench").asString(), "test_sweep");
    EXPECT_EQ(doc.at("schema").asUint(), 8u);
    EXPECT_FALSE(doc.at("git").asString().empty());
    const auto &cells = doc.at("cells").asArray();
    ASSERT_EQ(cells.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const Json &c = cells[i];
        EXPECT_EQ(c.at("workload").asString(), rs[i].workload);
        EXPECT_EQ(c.at("scheme").asString(), rs[i].scheme);
        EXPECT_EQ(c.at("cycles").asUint(),
                  static_cast<std::uint64_t>(rs[i].result.cycles));
        EXPECT_EQ(c.at("instructions").asUint(),
                  rs[i].result.instructions);
        EXPECT_EQ(c.at("fences").asUint(), rs[i].result.fences);
        // The full StatSet rides along and round-trips too.
        const auto &stats = c.at("stats").asObject();
        for (const auto &[name, value] : rs[i].result.stats.all())
            EXPECT_EQ(stats.at(name).asUint(), value) << name;
    }
}

TEST(Sweep, SampledCiIsNullBelowTwoWindows)
{
    // One window gives no variance, so no error estimate: the JSON
    // says null rather than a CI of 0. Several windows give numbers.
    SweepCell one;
    one.profile = lebenchSuite().front();
    one.scheme = Scheme::Unsafe;
    one.iterations = 20;
    one.warmup = 1;
    one.sampling = sim::SamplingParams::parse(
        "w=5000,warm=10000,period=400000,seed=1");
    SweepCell many = one;
    many.sampling = sim::SamplingParams::parse(
        "w=200,warm=200,period=1000,seed=1");

    SweepRunner runner(optsWithJobs(1));
    auto rs = runner.run({one, many});
    ASSERT_TRUE(rs[0].ok) << rs[0].error;
    ASSERT_TRUE(rs[1].ok) << rs[1].error;
    EXPECT_EQ(rs[0].result.sampling.windows, 1u);
    EXPECT_GE(rs[1].result.sampling.windows, 2u);

    Json doc = Json::parse(runner.toJson().dump(2));
    const auto &cells = doc.at("cells").asArray();
    const Json &s1 = cells[0].at("sampling");
    EXPECT_EQ(s1.at("windows").asUint(), 1u);
    EXPECT_TRUE(s1.at("cpi_ci95").isNull());
    EXPECT_TRUE(s1.at("rel_error").isNull());
    EXPECT_GT(s1.at("cpi_mean").asDouble(), 0.0);
    const Json &sn = cells[1].at("sampling");
    EXPECT_GE(sn.at("windows").asUint(), 2u);
    EXPECT_DOUBLE_EQ(sn.at("cpi_ci95").asDouble(),
                     rs[1].result.sampling.cpiCi95);
    EXPECT_DOUBLE_EQ(sn.at("rel_error").asDouble(),
                     rs[1].result.sampling.relError);
}

TEST(Sweep, EveryCellCarriesProvenanceAndTelemetry)
{
    SweepRunner runner(optsWithJobs(2));
    runner.run(smallGrid());
    Json doc = Json::parse(runner.toJson().dump(2));
    for (const Json &c : doc.at("cells").asArray()) {
        const Json &p = c.at("provenance");
        EXPECT_EQ(p.at("workload").asString(),
                  c.at("workload").asString());
        EXPECT_EQ(p.at("scheme").asString(),
                  c.at("scheme").asString());
        EXPECT_EQ(p.at("config_hash").asString().size(), 16u);
        EXPECT_FALSE(p.at("git").asString().empty());
        EXPECT_GE(p.at("wall_seconds").asDouble(), 0.0);
        EXPECT_EQ(p.at("jobs").asUint(), 2u);

        // The acceptance floor: at least three histogram summaries
        // per cell, each with the full summary shape.
        const auto &hists = c.at("histograms").asObject();
        for (const char *name :
             {"rob_occupancy", "fence_stall_cycles", "squash_depth"})
            ASSERT_TRUE(hists.count(name)) << name;
        for (const auto &[name, h] : hists) {
            EXPECT_TRUE(h.contains("count")) << name;
            EXPECT_TRUE(h.contains("mean")) << name;
            EXPECT_TRUE(h.contains("p50")) << name;
            EXPECT_TRUE(h.contains("p99")) << name;
        }
        EXPECT_GT(hists.at("rob_occupancy").at("count").asUint(),
                  0u);
        EXPECT_FALSE(c.contains("timeseries"));
    }
}

TEST(Sweep, ConfigHashKeysCellsStably)
{
    CellResult a;
    a.workload = "getpid";
    a.scheme = "unsafe";
    a.seed = 1;
    a.iterations = 4;
    a.warmup = 1;
    CellResult b = a;
    EXPECT_EQ(cellConfigHash(a), cellConfigHash(b));
    EXPECT_EQ(cellConfigHash(a).size(), 16u);

    b.seed = 2;
    EXPECT_NE(cellConfigHash(a), cellConfigHash(b));
    // A default-body cell's tags are labels, not configuration.
    b = a;
    b.tags["variant"] = "x";
    EXPECT_EQ(cellConfigHash(a), cellConfigHash(b));
    // Results do not feed the hash — only configuration does.
    b = a;
    b.result.instructions = 999;
    EXPECT_EQ(cellConfigHash(a), cellConfigHash(b));

    // Pinned values: bench_report matches committed baselines by
    // this hash, so it must not drift.
    EXPECT_EQ(cellConfigHash(a), "775391ac91a24287");
    b = a;
    b.sampling = sim::SamplingParams::parse(
        "w=5000,warm=10000,period=400000,seed=1");
    EXPECT_EQ(cellConfigHash(b), "6070d4315d24dcc7");
}

TEST(Sweep, ConfigHashMixesEveryPerspectiveField)
{
    // One flip per PerspectiveConfig field; the count check makes a
    // new field fail here until it gets a flip of its own.
    using Flip = void (*)(core::PerspectiveConfig &);
    const Flip flips[] = {
        [](core::PerspectiveConfig &c) { c.enableIsv = !c.enableIsv; },
        [](core::PerspectiveConfig &c) { c.enableDsv = !c.enableDsv; },
        [](core::PerspectiveConfig &c) {
            c.blockUnknown = !c.blockUnknown;
        },
        [](core::PerspectiveConfig &c) { c.fillLatency += 1; },
        [](core::PerspectiveConfig &c) { c.isvCacheEntries *= 2; },
        [](core::PerspectiveConfig &c) { c.dsvCacheEntries *= 2; },
        [](core::PerspectiveConfig &c) { c.cacheAssoc *= 2; },
        [](core::PerspectiveConfig &c) {
            c.flushOnContextSwitch = !c.flushOnContextSwitch;
        },
        [](core::PerspectiveConfig &c) { c.revocationLatency += 1; },
    };
    std::size_t fields = 0;
    core::forEachField(core::PerspectiveConfig{},
                       [&fields](const char *, auto) { ++fields; });
    ASSERT_EQ(std::size(flips), fields);

    CellResult a;
    a.workload = "getpid";
    a.scheme = "perspective";
    const std::string base = cellConfigHash(a);
    std::set<std::string> seen{base};
    for (Flip flip : flips) {
        CellResult b = a;
        flip(b.perspective);
        ASSERT_NE(b.perspective, a.perspective);
        EXPECT_TRUE(seen.insert(cellConfigHash(b)).second);
    }
}

TEST(Sweep, TagsNameOnlyCustomBodies)
{
    SweepCell plain;
    plain.profile = lebenchSuite().front();
    SweepCell tagged = plain;
    tagged.tags = {{"role", "baseline"}};
    EXPECT_EQ(cellConfigHash(describeCell(plain)),
              cellConfigHash(describeCell(tagged)));

    // An unnamed custom body keys as the default body; a named one
    // keys by its tags.
    auto body = [](const SweepCell &) { return RunResult{}; };
    SweepCell custom = plain;
    custom.body = body;
    EXPECT_EQ(cellConfigHash(describeCell(plain)),
              cellConfigHash(describeCell(custom)));
    SweepCell named = tagged;
    named.body = body;
    EXPECT_NE(cellConfigHash(describeCell(custom)),
              cellConfigHash(describeCell(named)));
    SweepCell renamed = named;
    renamed.tags["role"] = "other";
    EXPECT_NE(cellConfigHash(describeCell(named)),
              cellConfigHash(describeCell(renamed)));
}

TEST(Sweep, AblationBaselineKeysLikeTheGridCell)
{
    // bench_ablation plans an UNSAFE baseline as a tagged cell of its
    // own; it must key as the Fig 9.2 grid's UNSAFE cell, which
    // SchemeGrid plans untagged with the standard iteration counts.
    const std::vector<WorkloadProfile> suite = lebenchSuite();
    auto mmap = std::find_if(
        suite.begin(), suite.end(),
        [](const WorkloadProfile &w) { return w.name == "mmap"; });
    ASSERT_NE(mmap, suite.end());
    SweepCell grid;
    grid.profile = *mmap;
    grid.scheme = Scheme::Unsafe;
    grid.iterations = 30;
    grid.warmup = 3;
    SweepCell ablation = grid;
    ablation.tags = {{"role", "baseline"}};
    EXPECT_EQ(cellConfigHash(describeCell(grid)),
              cellConfigHash(describeCell(ablation)));
    // The same cell under a non-default config keys apart.
    ablation.scheme = Scheme::Perspective;
    SweepCell allow = ablation;
    allow.perspective.blockUnknown = false;
    EXPECT_NE(cellConfigHash(describeCell(ablation)),
              cellConfigHash(describeCell(allow)));
}

TEST(Sweep, JsonReportsMakespanAndWorkerBusyTime)
{
    SweepRunner runner(optsWithJobs(2));
    auto grid = smallGrid();
    runner.run(grid);

    Json doc = runner.toJson();
    const Json &sched = doc.at("schedule");
    EXPECT_EQ(sched.at("executed").asUint(), grid.size());

    double makespan = sched.at("makespan").asDouble();
    double ideal = sched.at("ideal_makespan").asDouble();
    EXPECT_GT(ideal, 0.0);
    // The measured makespan can never beat a perfectly balanced
    // schedule of the same measured cell costs.
    EXPECT_GE(makespan, ideal * 0.999);

    const auto &busy = sched.at("worker_busy").asArray();
    ASSERT_EQ(busy.size(), 2u);
    double total = 0;
    for (const Json &b : busy)
        total += b.asDouble();
    // Every executed cell's seconds were attributed to some worker.
    EXPECT_GT(total, 0.0);
    EXPECT_LE(ideal, total + 1e-9);
}

TEST(Sweep, RunsAccumulateAcrossBatches)
{
    // A bench may call run() once per table section: results, the
    // JSON cells and the schedule accounting all accumulate, in
    // submission order.
    SweepRunner runner(optsWithJobs(2));
    auto grid = smallGrid();
    auto first = runner.run(grid);
    Json one = runner.toJson().at("schedule");
    auto second = runner.run(grid);
    ASSERT_EQ(runner.results().size(), 2 * grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        expectIdentical(runner.results()[i], first[i]);
        expectIdentical(runner.results()[grid.size() + i], second[i]);
    }
    Json doc = runner.toJson();
    EXPECT_EQ(doc.at("cells").asArray().size(), 2 * grid.size());
    const Json &two = doc.at("schedule");
    EXPECT_EQ(two.at("executed").asUint(), 2 * grid.size());
    EXPECT_GT(two.at("ideal_makespan").asDouble(),
              one.at("ideal_makespan").asDouble());
    EXPECT_GE(two.at("makespan").asDouble(),
              one.at("makespan").asDouble());
}

TEST(Sweep, ChromeTraceJsonHasValidEventShape)
{
    sim::trace::EventLog log;
    sim::trace::Event span;
    span.flag = sim::trace::Flag::Commit;
    span.start = 10;
    span.dur = 5;
    span.seq = 1;
    span.name = "load r3";
    span.func = "getpid[0]";
    log.record(span);
    sim::trace::Event instant;
    instant.flag = sim::trace::Flag::Squash;
    instant.start = 20;
    instant.seq = 2;
    instant.name = "branch (mispredict)";
    log.record(instant);

    Json doc = Json::parse(chromeTraceJson(log).dump(1));
    const auto &events = doc.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);
    const Json &e0 = events[0];
    EXPECT_EQ(e0.at("ph").asString(), "X");
    EXPECT_EQ(e0.at("ts").asUint(), 10u);
    EXPECT_EQ(e0.at("dur").asUint(), 5u);
    EXPECT_EQ(e0.at("cat").asString(), "commit");
    EXPECT_GE(e0.at("tid").asUint(), 1u);
    const Json &e1 = events[1];
    EXPECT_EQ(e1.at("ph").asString(), "i");
    EXPECT_EQ(e1.at("s").asString(), "t");
    EXPECT_FALSE(e1.contains("dur"));
    EXPECT_EQ(doc.at("otherData").at("dropped_events").asUint(), 0u);
}

TEST(Sweep, TraceLogCapturesSweepWhenRequested)
{
    std::string path = ::testing::TempDir() + "sweep_trace.json";
    SweepOptions o = optsWithJobs(2);
    o.tracePath = path;
    {
        SweepRunner runner(o);
        ASSERT_NE(sim::trace::eventLog(), nullptr);
        runner.run(smallGrid());
        EXPECT_TRUE(runner.emitTrace());
        EXPECT_GT(runner.traceLog()->size(), 0u);
    }
    // Destroying the runner detaches the global sink.
    EXPECT_EQ(sim::trace::eventLog(), nullptr);

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    Json doc = Json::parse(buf.str());
    EXPECT_FALSE(doc.at("traceEvents").asArray().empty());
    std::remove(path.c_str());
}

TEST(Sweep, GeomeanIsGeometric)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_EQ(geomean({}), 0.0);
    // Arithmetic mean of {0.5, 2.0} is 1.25; geometric is 1.0 — the
    // whole point of the lebench aggregation fix.
    EXPECT_DOUBLE_EQ(geomean({0.5, 2.0}), 1.0);
}

TEST(SweepOptions, EnvAndDefaultJobs)
{
    SweepOptions o;
    EXPECT_GE(o.effectiveJobs(), 1u);
    o.jobs = 3;
    EXPECT_EQ(o.effectiveJobs(), 3u);
}
