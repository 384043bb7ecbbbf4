/**
 * @file
 * Golden stat regression test: pins, for every scheme on the four
 * golden workloads (test_golden.cc) at seed 42, the per-access and
 * per-event counters the golden cycle counts do not see — the seven
 * cache counters, the mispredict split, kernel entries and
 * InvisiSpec's invisible loads — plus the exact key sets of `stats`
 * and `histograms`. A dropped or doubled increment, or a lazily
 * created stat that starts appearing (or vanishing), fails here even
 * when every cycle count still matches. Intentional model changes
 * must update these constants in the same commit and say why.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "workloads/experiment.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::workloads;

namespace
{

/** The pinned counters, in StatGolden::values order. */
const char *const kPinned[] = {
    "l1d.accesses",       "l1d.misses",         "l1d.prefetches",
    "l2.data_misses",     "l1i.accesses",       "l1i.misses",
    "l1i.prefetches",     "mispredicts",        "mispredicts.branch",
    "mispredicts.icall",  "mispredicts.ret",    "kernel_entries",
    "invisispec.invisible_loads"};
constexpr std::size_t kNumPinned = std::size(kPinned);

struct StatGolden
{
    Scheme scheme;
    std::array<std::uint64_t, kNumPinned> values;
};

// Captured with Experiment(profile, scheme, 42).run(/*iterations=*/8,
// /*warmup=*/2), the configuration of test_golden.cc.
constexpr StatGolden kGetpidStats[] = {
    {Scheme::Unsafe, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Fence, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Dom, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Stt, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Spot, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::SpecCfi, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::PerspectiveStatic,
     {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Perspective, {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::PerspectivePlusPlus,
     {1336, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::InvisiSpec, {1344, 0, 0, 0, 592, 0, 0, 0, 0, 0, 0, 8, 584}},
};

constexpr StatGolden kMmapStats[] = {
    {Scheme::Unsafe, {3864, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::Fence, {3863, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::Dom, {3857, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::Stt, {3864, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::Spot, {3864, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::SpecCfi, {3864, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::PerspectiveStatic,
     {3848, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::Perspective,
     {3848, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::PerspectivePlusPlus,
     {3848, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 0}},
    {Scheme::InvisiSpec,
     {3871, 256, 256, 256, 1562, 0, 0, 10, 9, 0, 1, 8, 1594}},
};

constexpr StatGolden kReadStats[] = {
    {Scheme::Unsafe, {2456, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::Fence, {2456, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::Dom, {2456, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::Stt, {2448, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::Spot, {2456, 0, 0, 0, 1056, 0, 0, 32, 16, 8, 8, 8, 0}},
    {Scheme::SpecCfi, {2456, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::PerspectiveStatic,
     {2456, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::Perspective, {2448, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::PerspectivePlusPlus,
     {2448, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 0}},
    {Scheme::InvisiSpec,
     {2456, 0, 0, 0, 1056, 0, 0, 24, 16, 0, 8, 8, 1024}},
};

constexpr StatGolden kCtxSwitchStats[] = {
    {Scheme::Unsafe, {3712, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Fence, {3720, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Dom, {3712, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Stt, {3704, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Spot, {3712, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::SpecCfi, {3712, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::PerspectiveStatic,
     {3704, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::Perspective, {3704, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::PerspectivePlusPlus,
     {3704, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 0}},
    {Scheme::InvisiSpec, {3720, 0, 0, 0, 1656, 0, 0, 0, 0, 0, 0, 8, 1648}},
};

/** Counters every cell reports, whatever the scheme. */
const std::set<std::string> kBaseStats = {
    "blocked_cycles",   "committed",         "committed.kernel",
    "fences",           "fences.kernel",     "fetched",
    "gate.checks",      "gate.elided",       "kernel_entries",
    "l1d.accesses",     "l1d.misses",        "l1d.prefetches",
    "l1i.accesses",     "l1i.misses",        "l1i.prefetches",
    "l2.data_misses",   "loads",             "loads.invisible",
    "loads.speculative", "mispredicts",      "mispredicts.branch",
    "mispredicts.ret",  "squashed_uops",     "squashes"};

const std::set<std::string> kBaseHistograms = {
    "fence_stall_cycles", "load_issue_wait", "rob_occupancy",
    "squash_depth"};

bool
isPerspective(Scheme s)
{
    return s == Scheme::PerspectiveStatic || s == Scheme::Perspective ||
           s == Scheme::PerspectivePlusPlus;
}

/** The exact `stats` key set of one golden cell. */
std::set<std::string>
expectedStats(const std::string &workload, Scheme s)
{
    std::set<std::string> keys = kBaseStats;
    switch (s) {
      case Scheme::InvisiSpec:
        keys.insert("invisispec.invisible_loads");
        break;
      default: break;
    }
    if (isPerspective(s)) {
        keys.insert({"dsvmt.mru.hits", "dsvmt.mru.lookups",
                     "perspective.fence.dsv",
                     "perspective.fence.dsv_miss",
                     "perspective.fence.isv",
                     "perspective.fence.isv_miss",
                     "perspective.fence.unregistered"});
    }
    // Only read's VFS dispatch reaches an indirect call; the other
    // workloads never create the counter.
    if (workload == "read")
        keys.insert("mispredicts.icall");
    return keys;
}

std::set<std::string>
expectedHistograms(Scheme s)
{
    std::set<std::string> keys = kBaseHistograms;
    if (isPerspective(s))
        keys.insert({"dsv_miss_burst", "isv_miss_burst"});
    return keys;
}

template <typename Map>
std::set<std::string>
keysOf(const Map &m)
{
    std::set<std::string> keys;
    for (const auto &[name, value] : m)
        keys.insert(name);
    return keys;
}

const WorkloadProfile &
profileNamed(const std::string &name)
{
    static auto suite = lebenchSuite();
    for (const auto &w : suite)
        if (w.name == name)
            return w;
    throw std::runtime_error("no profile " + name);
}

template <std::size_t N>
void
checkStats(const std::string &workload, const StatGolden (&table)[N])
{
    ASSERT_EQ(N, allSchemes().size() + 1)
        << "scheme list changed; extend the stat golden table";
    for (const StatGolden &g : table) {
        SCOPED_TRACE(workload + " / " + schemeName(g.scheme));
        Experiment e(profileNamed(workload), g.scheme, 42);
        RunResult r = e.run(8, 2);
        for (std::size_t i = 0; i < kNumPinned; ++i)
            EXPECT_EQ(r.stats.get(kPinned[i]), g.values[i])
                << kPinned[i];
        EXPECT_EQ(keysOf(r.stats.all()),
                  expectedStats(workload, g.scheme));
        EXPECT_EQ(keysOf(r.stats.allHistograms()),
                  expectedHistograms(g.scheme));
    }
}

} // namespace

TEST(GoldenStats, GetpidAllSchemes) { checkStats("getpid", kGetpidStats); }

TEST(GoldenStats, MmapAllSchemes) { checkStats("mmap", kMmapStats); }

TEST(GoldenStats, ReadAllSchemes) { checkStats("read", kReadStats); }

TEST(GoldenStats, CtxSwitchAllSchemes)
{
    checkStats("ctx-switch", kCtxSwitchStats);
}
