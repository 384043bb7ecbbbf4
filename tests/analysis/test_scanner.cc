#include <gtest/gtest.h>

#include "analysis/scanner.hh"
#include "core/isv_builders.hh"
#include "kernel/kstate.hh"
#include "workloads/driver.hh"
#include "workloads/experiment.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::analysis;
using namespace perspective::kernel;

namespace
{

struct ScannerFixture : ::testing::Test
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    workloads::DriverSet drivers{img};
    std::unique_ptr<KernelState> ks;
    std::unique_ptr<SyscallExecutor> exec;
    Pid pid = 0;

    ScannerFixture()
    {
        img.program().layout();
        ks = std::make_unique<KernelState>(mem);
        pid = ks->createProcess(ks->createCgroup("fuzz"));
        exec = std::make_unique<SyscallExecutor>(*ks, img);
    }
};

} // namespace

TEST_F(ScannerFixture, FindsGadgetsAndAccountsTime)
{
    GadgetScanner scanner(img, mem, *exec, pid);
    ScannerConfig cfg;
    cfg.executions = 400;
    auto res = scanner.scan(cfg);
    EXPECT_GT(res.gadgetsFound, 10u);
    EXPECT_GT(res.simHours, 0.0);
    EXPECT_GT(res.functionsAnalyzed, 200u);
    EXPECT_EQ(res.executions, 400u);
    EXPECT_EQ(res.gadgetsFound,
              res.mdsFound + res.portFound + res.cacheFound);
}

TEST_F(ScannerFixture, DeterministicForSameSeed)
{
    GadgetScanner s1(img, mem, *exec, pid);
    GadgetScanner s2(img, mem, *exec, pid);
    ScannerConfig cfg;
    cfg.executions = 200;
    auto r1 = s1.scan(cfg);
    auto r2 = s2.scan(cfg);
    EXPECT_EQ(r1.gadgetsFound, r2.gadgetsFound);
    EXPECT_EQ(r1.functionsAnalyzed, r2.functionsAnalyzed);
}

TEST_F(ScannerFixture, BoundedScanAnalyzesOnlyIsvFunctions)
{
    core::StaticIsvBuilder b(img);
    core::IsvView view = b.build({Sys::Read, Sys::Poll, Sys::Open,
                                  Sys::Close, Sys::Getpid});
    GadgetScanner scanner(img, mem, *exec, pid);
    ScannerConfig cfg;
    cfg.executions = 400;
    auto bounded = scanner.scan(cfg, &view);
    auto unbounded = scanner.scan(cfg);
    EXPECT_LT(bounded.functionsAnalyzed,
              unbounded.functionsAnalyzed);
    EXPECT_LT(bounded.simHours, unbounded.simHours);
    for (auto f : bounded.vulnerableFunctions)
        EXPECT_TRUE(view.containsFunction(f));
}

TEST_F(ScannerFixture, BoundedScanImprovesDiscoveryRate)
{
    // Figure 9.1's headline: gadgets/hour improves when the search
    // space is bounded by the ISV.
    core::StaticIsvBuilder b(img);
    std::set<Sys> sys;
    for (Sys s : workloads::staticSyscallSet(
             workloads::nginxProfile()))
        sys.insert(s);
    core::IsvView view = b.build(sys);

    GadgetScanner scanner(img, mem, *exec, pid);
    ScannerConfig cfg;
    cfg.executions = 800;
    auto bounded = scanner.scan(cfg, &view);
    auto unbounded = scanner.scan(cfg);
    ASSERT_GT(bounded.gadgetsFound, 0u);
    EXPECT_GT(bounded.discoveryRate(), unbounded.discoveryRate());
}

TEST_F(ScannerFixture, BoundedFindingsMatchInViewGadgetCensus)
{
    // The equivalence the ISV++ fast path in Experiment relies on:
    // a sufficiently long bounded campaign discovers exactly the
    // gadget functions inside the view that fuzzing can reach.
    core::StaticIsvBuilder b(img);
    core::IsvView view = b.build({Sys::Brk, Sys::Uname});
    GadgetScanner scanner(img, mem, *exec, pid);
    ScannerConfig cfg;
    cfg.executions = 1500;
    auto res = scanner.scan(cfg, &view);
    for (auto f : res.vulnerableFunctions) {
        EXPECT_TRUE(view.containsFunction(f));
        EXPECT_FALSE(img.info(f).gadgets.empty());
    }
}
