/**
 * @file
 * The sweep-scaling layers: persistent cell cache (content-addressed,
 * epoch-invalidated, byte-identical on hits), deterministic sharding
 * (a true partition recombined by mergeSweeps), and the cost-aware
 * schedule accounting that lands in the sweep JSON.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/cellcache.hh"
#include "harness/json.hh"
#include "harness/sweep.hh"

using namespace perspective;
using namespace perspective::harness;
using namespace perspective::workloads;

namespace
{

/** Fresh per-test cache directory under the gtest temp dir. */
std::string
cacheDirFor(const char *test)
{
    std::string dir = ::testing::TempDir() + "cellcache_" + test;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<SweepCell>
smallGrid()
{
    std::vector<SweepCell> cells;
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
    }
    EXPECT_EQ(cells.size(), 6u);
    return cells;
}

SweepOptions
optsWithCache(const std::string &dir, unsigned jobs = 2)
{
    SweepOptions o;
    o.benchName = "test_cellcache";
    o.jobs = jobs;
    o.cacheDir = dir;
    return o;
}

/** A cell's JSON with the given top-level keys removed. */
Json
without(const Json &cell, std::initializer_list<const char *> keys)
{
    Json::Object o = cell.asObject();
    for (const char *k : keys)
        o.erase(k);
    return Json(std::move(o));
}

} // namespace

// ---- CellCache primitives ------------------------------------------

TEST(CellCache, StoreLoadRoundTripAndStats)
{
    CellCache cache(cacheDirFor("roundtrip"), "fp");
    ASSERT_TRUE(cache.persistent());

    EXPECT_FALSE(cache.load("aaaa").has_value());
    Json::Object o;
    o["cycles"] = std::uint64_t{123};
    ASSERT_TRUE(cache.store("aaaa", Json(o)));
    auto hit = cache.load("aaaa");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->at("cycles").asUint(), 123u);

    CellCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.stores, 1u);
}

TEST(CellCache, FingerprintChangeInvalidatesEntries)
{
    // Simulates an epoch bump (or a new build): same directory,
    // different code fingerprint — every old entry is unreachable.
    std::string dir = cacheDirFor("fingerprint");
    {
        CellCache epoch1(dir, "fp-epoch1");
        Json::Object o;
        o["cycles"] = std::uint64_t{7};
        ASSERT_TRUE(epoch1.store("cell", Json(o)));
        EXPECT_TRUE(epoch1.load("cell").has_value());
    }
    CellCache epoch2(dir, "fp-epoch2");
    EXPECT_FALSE(epoch2.load("cell").has_value());
    // The original epoch still sees its entry (CI jobs on different
    // commits can share one directory).
    CellCache again(dir, "fp-epoch1");
    EXPECT_TRUE(again.load("cell").has_value());
}

TEST(CellCache, CodeFingerprintDependsOnEpoch)
{
    EXPECT_EQ(codeFingerprint(1).size(), 16u);
    EXPECT_NE(codeFingerprint(1), codeFingerprint(2));
    EXPECT_EQ(codeFingerprint(1), codeFingerprint(1));
}

TEST(CellCache, CorruptEntryIsAMiss)
{
    std::string dir = cacheDirFor("corrupt");
    CellCache cache(dir, "fp");
    Json::Object o;
    o["cycles"] = std::uint64_t{1};
    ASSERT_TRUE(cache.store("dead", Json(o)));

    // Clobber the entry with a torn write.
    std::ofstream os(dir + "/fp/dead.json", std::ios::trunc);
    os << "{\"cycles\": 12";
    os.close();
    EXPECT_FALSE(cache.load("dead").has_value());
}

TEST(CellCache, CostTableWorksWithoutDirectory)
{
    CellCache mem("");
    EXPECT_FALSE(mem.persistent());
    EXPECT_FALSE(mem.load("x").has_value());
    EXPECT_FALSE(mem.loadCost("x", ExecMode::Detailed).has_value());
    mem.storeCost("x", ExecMode::Detailed, 1.25);
    auto c = mem.loadCost("x", ExecMode::Detailed);
    ASSERT_TRUE(c.has_value());
    EXPECT_DOUBLE_EQ(*c, 1.25);
}

TEST(CellCache, CostTablePersistsAcrossInstances)
{
    std::string dir = cacheDirFor("costs");
    {
        CellCache cache(dir, "fp-a");
        cache.storeCost("cell", ExecMode::Detailed, 0.5);
    }
    // Costs are epoch-independent: timing estimates survive a
    // fingerprint change even though results do not.
    CellCache other(dir, "fp-b");
    auto c = other.loadCost("cell", ExecMode::Detailed);
    ASSERT_TRUE(c.has_value());
    EXPECT_DOUBLE_EQ(*c, 0.5);
}

TEST(CellCache, CostTableKeyedByExecutionMode)
{
    std::string dir = cacheDirFor("costs-mode");
    {
        CellCache cache(dir, "fp");
        // The same config hash costs ~9x less sampled (DESIGN §5.8);
        // the table must keep the modes apart or the LPT dispatch
        // order runs on 9x-stale estimates.
        cache.storeCost("cell", ExecMode::Detailed, 9.0);
        cache.storeCost("cell", ExecMode::Sampled, 1.0);
    }
    CellCache other(dir, "fp");
    auto detailed = other.loadCost("cell", ExecMode::Detailed);
    auto sampled = other.loadCost("cell", ExecMode::Sampled);
    ASSERT_TRUE(detailed.has_value());
    ASSERT_TRUE(sampled.has_value());
    EXPECT_DOUBLE_EQ(*detailed, 9.0);
    EXPECT_DOUBLE_EQ(*sampled, 1.0);
}

// ---- Warm runs through the SweepRunner -----------------------------

TEST(CellCache, WarmRunServesEveryCellByteIdentical)
{
    std::string dir = cacheDirFor("warm");
    auto grid = smallGrid();

    SweepRunner cold(optsWithCache(dir));
    cold.run(grid);
    EXPECT_EQ(cold.cache().stats().hits, 0u);
    EXPECT_EQ(cold.cache().stats().misses, grid.size());
    Json coldDoc = cold.toJson();

    SweepRunner warm(optsWithCache(dir));
    auto rs = warm.run(grid);
    EXPECT_EQ(warm.cache().stats().hits, grid.size());
    EXPECT_EQ(warm.cache().stats().misses, 0u);
    Json warmDoc = warm.toJson();

    const auto &coldCells = coldDoc.at("cells").asArray();
    const auto &warmCells = warmDoc.at("cells").asArray();
    ASSERT_EQ(warmCells.size(), coldCells.size());
    for (std::size_t i = 0; i < warmCells.size(); ++i) {
        EXPECT_TRUE(rs[i].cached);
        EXPECT_TRUE(warmCells[i].at("cached").asBool());
        // Stripping only the cached marker leaves the original
        // emission byte-for-byte: provenance, wall seconds, stats,
        // histograms, time series all come from the producing run.
        EXPECT_EQ(without(warmCells[i], {"cached"}).dump(2),
                  coldCells[i].dump(2))
            << "cell " << i;
    }

    const Json &cacheJ = warmDoc.at("cache");
    EXPECT_EQ(cacheJ.at("hits").asUint(), grid.size());
    EXPECT_EQ(cacheJ.at("misses").asUint(), 0u);
    EXPECT_EQ(cacheJ.at("dir").asString(), dir);

    // Cached results still feed table rendering: scalar metrics and
    // counters are reconstructed, not zeroed.
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_GT(rs[i].result.cycles, 0u);
        EXPECT_GT(rs[i].result.instructions, 0u);
        EXPECT_FALSE(rs[i].result.stats.all().empty());
    }
}

TEST(CellCache, NoCacheFlagDisablesPersistence)
{
    std::string dir = cacheDirFor("nocache");
    SweepOptions o = optsWithCache(dir);
    o.noCache = true;
    SweepRunner runner(o);
    runner.run(smallGrid());
    EXPECT_FALSE(runner.cache().persistent());
    // Nothing was written: a second, caching runner gets all misses.
    SweepRunner probe(optsWithCache(dir));
    probe.run(smallGrid());
    EXPECT_EQ(probe.cache().stats().hits, 0u);
}

// ---- Sharding ------------------------------------------------------

TEST(Shard, AssignmentIsADeterministicPartition)
{
    auto grid = smallGrid();
    for (unsigned n : {1u, 2u, 3u, 5u}) {
        for (const SweepCell &c : grid) {
            unsigned s = shardOf(cellConfigHash(c), n);
            EXPECT_LT(s, n);
            // Pure function of (hash, n): stable across calls, runs,
            // hosts, and job counts.
            EXPECT_EQ(s, shardOf(cellConfigHash(c), n));
        }
    }
}

TEST(Shard, ShardsUnionToFullGridWithoutOverlap)
{
    auto grid = smallGrid();
    const unsigned kShards = 2;

    std::set<std::uint64_t> seen;
    std::size_t executed = 0;
    for (unsigned k = 1; k <= kShards; ++k) {
        SweepOptions o;
        o.benchName = "test_cellcache";
        o.jobs = 2;
        o.shardIndex = k;
        o.shardCount = kShards;
        SweepRunner runner(o);
        auto rs = runner.run(grid);
        ASSERT_EQ(rs.size(), grid.size());
        std::size_t mine = 0;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (rs[i].skipped)
                continue;
            ++mine;
            EXPECT_TRUE(rs[i].ok) << rs[i].error;
            // Exactly-one ownership: no cell may appear twice.
            EXPECT_TRUE(seen.insert(rs[i].gridIndex).second)
                << "grid index " << rs[i].gridIndex;
        }
        executed += mine;
        // Skipped cells are excluded from the emitted JSON but the
        // shard block still records the full grid size.
        Json doc = runner.toJson();
        EXPECT_EQ(doc.at("shard").at("index").asUint(), k);
        EXPECT_EQ(doc.at("shard").at("count").asUint(), kShards);
        EXPECT_EQ(doc.at("shard").at("grid_cells").asUint(),
                  grid.size());
        EXPECT_EQ(doc.at("cells").asArray().size(), mine);
        EXPECT_EQ(doc.at("schedule").at("skipped").asUint(),
                  grid.size() - mine);
    }
    EXPECT_EQ(executed, grid.size());
    EXPECT_EQ(seen.size(), grid.size());
}

TEST(Shard, MergeReassemblesTheFullSweep)
{
    auto grid = smallGrid();

    SweepOptions full;
    full.benchName = "test_cellcache";
    full.jobs = 2;
    SweepRunner fullRunner(full);
    fullRunner.run(grid);
    Json fullDoc = fullRunner.toJson();

    std::vector<Json> shardDocs;
    for (unsigned k = 1; k <= 2; ++k) {
        SweepOptions o = full;
        o.shardIndex = k;
        o.shardCount = 2;
        SweepRunner runner(o);
        runner.run(grid);
        shardDocs.push_back(runner.toJson());
    }

    std::string error;
    auto merged =
        mergeSweeps(shardDocs, {"shard1", "shard2"}, error);
    ASSERT_TRUE(merged.has_value()) << error;

    const auto &fullCells = fullDoc.at("cells").asArray();
    const auto &mergedCells = merged->at("cells").asArray();
    ASSERT_EQ(mergedCells.size(), fullCells.size());
    for (std::size_t i = 0; i < mergedCells.size(); ++i) {
        EXPECT_EQ(mergedCells[i].at("grid_index").asUint(), i);
        // Cell-for-cell identical to the single-process run, modulo
        // wall-clock noise (wall seconds, mips, provenance timing).
        Json a = without(mergedCells[i],
                         {"wall_seconds", "mips", "provenance"});
        Json b = without(fullCells[i],
                         {"wall_seconds", "mips", "provenance"});
        EXPECT_EQ(a.dump(2), b.dump(2)) << "cell " << i;
    }
    EXPECT_EQ(merged->at("shard").at("count").asUint(), 1u);
    EXPECT_EQ(merged->at("shard").at("grid_cells").asUint(),
              grid.size());
}

TEST(Shard, MergeRejectsDuplicateOverlappingAndMissingShards)
{
    auto grid = smallGrid();
    std::vector<Json> docs;
    for (unsigned k = 1; k <= 2; ++k) {
        SweepOptions o;
        o.benchName = "test_cellcache";
        o.jobs = 1;
        o.shardIndex = k;
        o.shardCount = 2;
        SweepRunner runner(o);
        runner.run(grid);
        docs.push_back(runner.toJson());
    }
    std::string error;

    // Duplicate shard index.
    EXPECT_FALSE(mergeSweeps({docs[0], docs[0]}, {"a", "b"}, error)
                     .has_value());
    EXPECT_NE(error.find("duplicate shard"), std::string::npos)
        << error;

    // Overlapping cells: shard 2's index claimed, but with shard 1's
    // cell set riding along.
    Json::Object forged = docs[0].asObject();
    Json::Object shard = forged.at("shard").asObject();
    shard["index"] = std::uint64_t{2};
    forged["shard"] = Json(shard);
    EXPECT_FALSE(mergeSweeps({docs[0], Json(forged)}, {"a", "b"},
                             error)
                     .has_value());
    EXPECT_NE(error.find("overlap"), std::string::npos) << error;

    // Missing shard.
    EXPECT_FALSE(mergeSweeps({docs[0]}, {"a"}, error).has_value());
    EXPECT_NE(error.find("missing shard"), std::string::npos)
        << error;

    // The healthy pair still merges.
    EXPECT_TRUE(mergeSweeps(docs, {"a", "b"}, error).has_value())
        << error;
}

// ---- Cost-aware schedule accounting --------------------------------

TEST(Schedule, JsonReportsMakespanAndWorkerBusyTime)
{
    SweepOptions o;
    o.benchName = "test_cellcache";
    o.jobs = 2;
    SweepRunner runner(o);
    auto grid = smallGrid();
    runner.run(grid);

    Json doc = runner.toJson();
    const Json &sched = doc.at("schedule");
    EXPECT_EQ(sched.at("policy").asString(), "cost-aware");
    EXPECT_EQ(sched.at("executed").asUint(), grid.size());
    EXPECT_EQ(sched.at("cached").asUint(), 0u);
    EXPECT_EQ(sched.at("skipped").asUint(), 0u);

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

TEST(Schedule, SecondBatchUsesMeasuredCostsInProcess)
{
    // Even without a cache directory, costs measured by the first
    // run() batch feed the next one's schedule (the in-memory cost
    // table) — this just asserts the plumbing doesn't throw and the
    // accounting accumulates.
    SweepOptions o;
    o.benchName = "test_cellcache";
    o.jobs = 2;
    SweepRunner runner(o);
    auto grid = smallGrid();
    runner.run(grid);
    runner.run(grid);
    Json doc = runner.toJson();
    EXPECT_EQ(doc.at("schedule").at("executed").asUint(),
              2 * grid.size());
    EXPECT_EQ(doc.at("cells").asArray().size(), 2 * grid.size());
}
