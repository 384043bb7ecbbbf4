/**
 * @file
 * Guard: the measured detailed loop never looks a stat up by name.
 * Every per-access, per-op, per-mispredict and per-run stat goes
 * through a Counter/LazyCounter/LazyHistogram handle resolved once
 * (DESIGN §5.2); a string-keyed StatSet access in Pipeline::run or in
 * a policy gate costs a std::map walk per event. StatSet tallies its
 * name-keyed accesses, so a warmed Experiment's measured runs must
 * leave the tally unchanged — for every Fig 9.2 scheme, in exact and
 * in sampled mode.
 */

#include <gtest/gtest.h>

#include "workloads/experiment.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::workloads;

namespace
{

/** Unsafe plus the eight schemes of bench_lebench (Fig 9.2). */
const Scheme kFig92Schemes[] = {
    Scheme::Unsafe,     Scheme::Fence,
    Scheme::Dom,        Scheme::Stt,
    Scheme::InvisiSpec, Scheme::Spot,
    Scheme::PerspectiveStatic, Scheme::Perspective,
    Scheme::PerspectivePlusPlus};

const WorkloadProfile &
profileNamed(const std::string &name)
{
    static auto suite = lebenchSuite();
    for (const auto &w : suite)
        if (w.name == name)
            return w;
    throw std::runtime_error("no profile " + name);
}

void
expectNoNameLookups(const std::string &workload,
                    const sim::SamplingParams &sampling)
{
    for (Scheme scheme : kFig92Schemes) {
        SCOPED_TRACE(workload + " / " + schemeName(scheme) + " / " +
                     sampling.spec());
        Experiment e(profileNamed(workload), scheme, 42, sampling);
        // Warm as Experiment::run does: unmeasured iterations bind
        // every lazily created stat, then the accounting resets.
        for (int i = 0; i < 3; ++i)
            e.runRequestOnPipeline();
        sim::Pipeline &cpu = e.pipeline();
        cpu.stats().clear();
        cpu.resetSampling();

        std::uint64_t before = cpu.stats().nameLookups();
        std::uint64_t insts = 0;
        for (int i = 0; i < 4; ++i)
            insts += e.runRequestOnPipeline().instructions;
        ASSERT_GT(insts, 0u);
        EXPECT_EQ(cpu.stats().nameLookups() - before, 0u)
            << "name-keyed StatSet accesses over " << insts
            << " measured instructions";
    }
}

// Small windows, so the measured runs cross the detailed, skip and
// warm phases rather than sitting in one opening window.
sim::SamplingParams
sampledParams()
{
    return sim::SamplingParams::parse("w=500,warm=500,period=2000,seed=1");
}

} // namespace

TEST(StatLookups, MeasuredRunsUseHandlesOnlyExact)
{
    for (const char *w : {"getpid", "mmap", "read"})
        expectNoNameLookups(w, sim::SamplingParams{});
}

TEST(StatLookups, MeasuredRunsUseHandlesOnlySampled)
{
    for (const char *w : {"getpid", "mmap", "read"})
        expectNoNameLookups(w, sampledParams());
}
