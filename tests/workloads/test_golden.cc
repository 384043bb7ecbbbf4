/**
 * @file
 * Golden-cycle regression test: pins the exact RunResult every scheme
 * produces for four workloads at seed 42, captured from the
 * pre-fast-path simulator. Together the workloads cover every
 * front-end path: getpid (plain syscall), mmap (allocation-heavy),
 * read (VFS indirect calls -> retpolines under SPOT), ctx-switch
 * (KPTI trampolines and shadow-stack returns under SPEC-CFI). Any change to simulated behaviour —
 * scheduling, memory, caches, predictors, policies — that shifts a
 * single cycle, fence or hit-rate digit fails here. Performance work
 * must be observationally equivalent; intentional model changes must
 * update these constants in the same commit and say why.
 */

#include <gtest/gtest.h>

#include "workloads/experiment.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::workloads;

namespace
{

struct Golden
{
    Scheme scheme;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t kernelInstructions;
    std::uint64_t fences;
    std::uint64_t isvFences;
    std::uint64_t dsvFences;
    double isvCacheHitRate;
    double dsvCacheHitRate;
};

// Captured at the seed commit with Experiment(profile, scheme, 42)
// .run(/*iterations=*/8, /*warmup=*/2).
constexpr Golden kGetpidGolden[] = {
    {Scheme::Unsafe, 848, 2248, 2136, 0, 0, 0, 0, 0},
    {Scheme::Fence, 848, 2248, 2136, 208, 0, 0, 0, 0},
    {Scheme::Dom, 848, 2248, 2136, 0, 0, 0, 0, 0},
    {Scheme::Stt, 848, 2248, 2136, 112, 0, 0, 0, 0},
    {Scheme::Spot, 1008, 2248, 2136, 0, 0, 0, 0, 0},
    {Scheme::SpecCfi, 848, 2248, 2136, 0, 0, 0, 0, 0},
    {Scheme::PerspectiveStatic, 848, 2248, 2136, 25, 1, 24,
     0.99823943661971826, 1},
    {Scheme::Perspective, 848, 2248, 2136, 25, 1, 24,
     0.99823943661971826, 1},
    {Scheme::PerspectivePlusPlus, 848, 2248, 2136, 25, 1, 24,
     0.99823943661971826, 1},
};

// mmap exercises allocation-heavy paths and separates the schemes
// (FENCE 2.3x UNSAFE), so it pins scheduling decisions getpid never
// reaches: blocked-load retries, store-forwarding, squash depth.
constexpr Golden kMmapGolden[] = {
    {Scheme::Unsafe, 2696, 8104, 7992, 0, 0, 0, 0, 0},
    {Scheme::Fence, 6200, 8104, 7992, 1026, 0, 0, 0, 0},
    {Scheme::Dom, 5696, 8104, 7992, 40, 0, 0, 0, 0},
    {Scheme::Stt, 2696, 8104, 7992, 215, 0, 0, 0, 0},
    {Scheme::Spot, 2856, 8104, 7992, 0, 0, 0, 0, 0},
    {Scheme::SpecCfi, 2696, 8104, 7992, 0, 0, 0, 0, 0},
    {Scheme::PerspectiveStatic, 3592, 8104, 7992, 160, 0, 160, 1,
     0.97490589711417819},
    {Scheme::Perspective, 3592, 8104, 7992, 160, 0, 160, 1,
     0.97490589711417819},
    {Scheme::PerspectivePlusPlus, 3592, 8104, 7992, 160, 0, 160, 1,
     0.97490589711417819},
};

// read drives the VFS indirect-call path, so it is the only table
// where SPOT's retpoline conversion costs cycles (1864 vs 1576) —
// pinning the retpoline front-end transform exactly.
constexpr Golden kReadGolden[] = {
    {Scheme::Unsafe, 1576, 5088, 4976, 0, 0, 0, 0, 0},
    {Scheme::Fence, 1832, 5088, 4976, 656, 0, 0, 0, 0},
    {Scheme::Dom, 1576, 5088, 4976, 0, 0, 0, 0, 0},
    {Scheme::Stt, 1576, 5088, 4976, 176, 0, 0, 0, 0},
    {Scheme::Spot, 1864, 5088, 4976, 0, 0, 0, 0, 0},
    {Scheme::SpecCfi, 1576, 5088, 4976, 0, 0, 0, 0, 0},
    {Scheme::PerspectiveStatic, 1576, 5088, 4976, 128, 72, 56, 1,
     0.99884259259259256},
    {Scheme::Perspective, 1576, 5088, 4976, 64, 0, 64, 1,
     0.99895833333333328},
    {Scheme::PerspectivePlusPlus, 1576, 5088, 4976, 64, 0, 64, 1,
     0.99895833333333328},
};

// ctx-switch crosses the KPTI kernel entry/exit trampolines and the
// shadow-stack return checks, covering the SpecCfi front-end path
// and the ASID-tagged view-cache behaviour across address spaces.
constexpr Golden kCtxSwitchGolden[] = {
    {Scheme::Unsafe, 1320, 6008, 5896, 0, 0, 0, 0, 0},
    {Scheme::Fence, 1720, 6008, 5896, 872, 0, 0, 0, 0},
    {Scheme::Dom, 1320, 6008, 5896, 0, 0, 0, 0, 0},
    {Scheme::Stt, 1320, 6008, 5896, 224, 0, 0, 0, 0},
    {Scheme::Spot, 1480, 6008, 5896, 0, 0, 0, 0, 0},
    {Scheme::SpecCfi, 1320, 6008, 5896, 0, 0, 0, 0, 0},
    {Scheme::PerspectiveStatic, 1320, 6008, 5896, 72, 0, 72, 1, 1},
    {Scheme::Perspective, 1320, 6008, 5896, 72, 0, 72, 1, 1},
    {Scheme::PerspectivePlusPlus, 1320, 6008, 5896, 72, 0, 72, 1, 1},
};

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
checkGolden(const char *workload, const Golden &g)
{
    SCOPED_TRACE(std::string(workload) + " / " + schemeName(g.scheme));
    Experiment e(profileNamed(workload), g.scheme, 42);
    RunResult r = e.run(8, 2);
    EXPECT_EQ(r.cycles, g.cycles);
    EXPECT_EQ(r.instructions, g.instructions);
    EXPECT_EQ(r.kernelInstructions, g.kernelInstructions);
    EXPECT_EQ(r.fences, g.fences);
    EXPECT_EQ(r.isvFences, g.isvFences);
    EXPECT_EQ(r.dsvFences, g.dsvFences);
    EXPECT_DOUBLE_EQ(r.isvCacheHitRate, g.isvCacheHitRate);
    EXPECT_DOUBLE_EQ(r.dsvCacheHitRate, g.dsvCacheHitRate);
    // The constants above were captured cycle by cycle; they must
    // hold with the run loop jumping over idle cycles (DESIGN §5.5).
    EXPECT_GT(e.pipeline().cyclesSkipped(), 0u);
}

} // namespace

TEST(Golden, GetpidAllSchemes)
{
    ASSERT_EQ(std::size(kGetpidGolden), allSchemes().size())
        << "allSchemes() changed; extend the golden table";
    for (const Golden &g : kGetpidGolden)
        checkGolden("getpid", g);
}

TEST(Golden, MmapAllSchemes)
{
    ASSERT_EQ(std::size(kMmapGolden), allSchemes().size())
        << "allSchemes() changed; extend the golden table";
    for (const Golden &g : kMmapGolden)
        checkGolden("mmap", g);
}

TEST(Golden, ReadAllSchemes)
{
    ASSERT_EQ(std::size(kReadGolden), allSchemes().size())
        << "allSchemes() changed; extend the golden table";
    for (const Golden &g : kReadGolden)
        checkGolden("read", g);
}

TEST(Golden, CtxSwitchAllSchemes)
{
    ASSERT_EQ(std::size(kCtxSwitchGolden), allSchemes().size())
        << "allSchemes() changed; extend the golden table";
    for (const Golden &g : kCtxSwitchGolden)
        checkGolden("ctx-switch", g);
}
