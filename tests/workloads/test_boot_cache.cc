/**
 * @file
 * Boot-image reuse: a cell restored copy-on-write from the shared
 * boot must be *observationally equivalent* to a fresh boot. The
 * tests compare full RunResults (cycles, instruction counts, fences,
 * view-cache hit rates) across boot modes and across cells.
 */

#include <gtest/gtest.h>

#include "attacks/poc.hh"
#include "attacks/races.hh"
#include "workloads/boot_cache.hh"
#include "workloads/experiment.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::workloads;

namespace
{

const WorkloadProfile &
profileNamed(const char *name)
{
    static auto suite = lebenchSuite();
    for (const auto &w : suite)
        if (w.name == name)
            return w;
    throw std::runtime_error(std::string("no profile ") + name);
}

void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.kernelInstructions, b.kernelInstructions);
    EXPECT_EQ(a.fences, b.fences);
    EXPECT_EQ(a.isvFences, b.isvFences);
    EXPECT_EQ(a.dsvFences, b.dsvFences);
    EXPECT_DOUBLE_EQ(a.isvCacheHitRate, b.isvCacheHitRate);
    EXPECT_DOUBLE_EQ(a.dsvCacheHitRate, b.dsvCacheHitRate);
}

/** Restore the default (enabled) reuse mode when a test returns. */
struct SnapshotModeGuard
{
    ~SnapshotModeGuard() { BootImage::setSnapshotEnabled(true); }
};

} // namespace

TEST(BootCache, SharedBootMatchesFreshBoot)
{
    SnapshotModeGuard guard;
    for (const char *wl : {"getpid", "mmap"}) {
        for (Scheme s :
             {Scheme::Fence, Scheme::Perspective, Scheme::Unsafe}) {
            SCOPED_TRACE(std::string(wl) + " / " + schemeName(s));
            BootImage::setSnapshotEnabled(false);
            Experiment fresh(profileNamed(wl), s, 42);
            RunResult rf = fresh.run(4, 1);

            BootImage::setSnapshotEnabled(true);
            Experiment shared(profileNamed(wl), s, 42);
            RunResult rs = shared.run(4, 1);
            expectSameResult(rf, rs);
        }
    }
}

TEST(BootCache, OneBootPerSeed)
{
    SnapshotModeGuard guard;
    BootImage::setSnapshotEnabled(true);
    BootImage::dropCache();
    Experiment a(profileNamed("getpid"), Scheme::Unsafe, 42);
    Experiment b(profileNamed("mmap"), Scheme::Fence, 42);
    EXPECT_EQ(BootImage::cacheSize(), 1u);
    Experiment c(profileNamed("getpid"), Scheme::Unsafe, 7);
    EXPECT_EQ(BootImage::cacheSize(), 2u);
}

TEST(BootCache, CellWritesDoNotLeakAcrossExperiments)
{
    SnapshotModeGuard guard;
    BootImage::setSnapshotEnabled(true);
    // Two experiments share the boot image; running one (which
    // writes memory: stores, allocator metadata) must not perturb
    // the other's results.
    Experiment a(profileNamed("mmap"), Scheme::Perspective, 42);
    Experiment b(profileNamed("mmap"), Scheme::Perspective, 42);
    RunResult ra = a.run(4, 1);
    RunResult rb = b.run(4, 1);
    expectSameResult(ra, rb);
}

TEST(Snapshot, LazyDynamicUpdateStatsSurviveRestore)
{
    // The dynamic-update stats ("update_latency",
    // "transient_gap_cycles", "perspective.revocation.stale_allows")
    // are created lazily the first time their event fires. The boot
    // image is captured before they exist; a second cell restored
    // from it after the first cell touched them must start with them
    // at zero and reproduce the first cell's race exactly.
    SnapshotModeGuard guard;
    BootImage::setSnapshotEnabled(true);
    Experiment a(attacks::pocProfile(), Scheme::Perspective, 42);
    attacks::RaceResult r1 = attacks::raceRevocation(a);
    auto &sa = a.pipeline().stats();
    std::uint64_t stale1 =
        sa.get("perspective.revocation.stale_allows");
    std::uint64_t gap1 = sa.histogram("transient_gap_cycles").count();
    std::uint64_t upd1 = sa.histogram("update_latency").count();
    EXPECT_GT(stale1, 0u);
    EXPECT_GT(gap1, 0u);
    EXPECT_GT(upd1, 0u);

    Experiment b(attacks::pocProfile(), Scheme::Perspective, 42);
    auto &sb = b.pipeline().stats();
    EXPECT_EQ(sb.get("perspective.revocation.stale_allows"), 0u);
    EXPECT_EQ(sb.histogram("transient_gap_cycles").count(), 0u);
    EXPECT_EQ(sb.histogram("update_latency").count(), 0u);

    attacks::RaceResult r2 = attacks::raceRevocation(b);
    EXPECT_EQ(sb.get("perspective.revocation.stale_allows"), stale1);
    EXPECT_EQ(sb.histogram("transient_gap_cycles").count(), gap1);
    EXPECT_EQ(sb.histogram("update_latency").count(), upd1);
    EXPECT_EQ(r1.staleAllows, r2.staleAllows);
    EXPECT_EQ(r1.leakedInWindow, r2.leakedInWindow);
    EXPECT_EQ(r1.updateLatency, r2.updateLatency);
}
