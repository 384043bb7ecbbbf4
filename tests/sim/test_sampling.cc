/**
 * @file
 * Sampled simulation (DESIGN §5.8): the systematic-sampling
 * estimator's mean/CI math on synthetic known-variance streams, the
 * PERSPECTIVE_SAMPLE spec grammar, and the pipeline-level
 * guarantees — an infinite detailed window reproduces the detailed
 * run bit for bit (the sampling machinery adds nothing but the phase
 * check), a finite-window sampled run is architecturally
 * indistinguishable from the detailed one even though most
 * instructions retire through the functional path, and a run that
 * ends inside a functional phase stops its clock there.
 *
 * The random-program differential drives the first two over
 * programs with arithmetic, memory traffic, branches, loops, calls
 * across the user/kernel boundary, indirect calls including wild
 * targets and unused operand slots (support/program_gen.hh), under
 * five schemes. Its suite keeps the
 * SMARTS name for the functional skip phase: functional
 * fast-forwarding.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "defenses/schemes.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "sim/sampling.hh"
#include "support/program_gen.hh"

using namespace perspective;
using namespace perspective::sim;

namespace
{

/** Pipeline parameters with sampling configured by @p sp (the
 * default leaves it off: the detailed reference). */
PipelineParams
sampledParams(SamplingParams sp = {})
{
    PipelineParams pp;
    pp.sampling = sp;
    return pp;
}

SamplingParams
infiniteWindow()
{
    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = SamplingParams::kInfiniteWindow;
    return sp;
}

void
seedMemory(Memory &mem)
{
    for (unsigned i = 0; i < 64; ++i)
        mem.write(0x100000 + i * 8, i * 3 + 1);
}

/** Every counter and histogram of @p ref and @p sm must match. */
void
expectSameStats(StatSet &ref, StatSet &sm, const std::string &what)
{
    // The per-cycle ROB occupancy is compared too, never vacuously.
    EXPECT_GT(ref.allHistograms().at("rob_occupancy").count(), 0u)
        << what;
    for (const auto &[name, value] : ref.all())
        EXPECT_EQ(value, sm.get(name)) << what << " counter " << name;
    for (const auto &[name, value] : sm.all())
        EXPECT_EQ(ref.get(name), value) << what << " counter " << name;
    for (const auto &[name, h] : ref.allHistograms()) {
        auto it = sm.allHistograms().find(name);
        ASSERT_NE(it, sm.allHistograms().end())
            << what << " histogram " << name;
        const Histogram &o = it->second;
        EXPECT_EQ(h.count(), o.count()) << what << " histogram " << name;
        EXPECT_EQ(h.min(), o.min()) << what << " histogram " << name;
        EXPECT_EQ(h.max(), o.max()) << what << " histogram " << name;
        EXPECT_DOUBLE_EQ(h.mean(), o.mean())
            << what << " histogram " << name;
    }
}

struct FastForwardDifferential
    : ::testing::TestWithParam<std::uint64_t>
{
};

/**
 * A counted loop with memory traffic, data-dependent forward
 * branches and a call per iteration: long enough (~10k committed
 * uops) that a small-period sampled run cycles through several
 * skip -> warm -> detailed periods.
 */
Program
loopProgram(unsigned iters)
{
    Program prog;
    FuncId leaf = 1;
    FuncId f = prog.addFunction("main", false);
    prog.addFunction("leaf", true);

    auto &body = prog.func(f).body;
    RegId ctr = 7;
    body.push_back(movImm(ctr, 0));
    std::uint32_t head = static_cast<std::uint32_t>(body.size());
    body.push_back(branchImm(Cond::Ge, ctr,
                             static_cast<std::int64_t>(iters),
                             head + 10));
    body.push_back(loadAbs(2, 0x100000 + 8 * 3));
    body.push_back(add(3, 3, 2));
    body.push_back(store(kNoReg, 0x100200, 3));
    // Odd iterations skip the kernel call, so the branch predictor
    // and the call path both see data-dependent behaviour.
    body.push_back(andImm(8, ctr, 1));
    body.push_back(branchImm(Cond::Eq, 8, 1, head + 8));
    body.push_back(addImm(4, 4, 1));
    body.push_back(call(leaf));
    body.push_back(addImm(ctr, ctr, 1));
    body.push_back(jump(head));
    body.push_back(ret());

    auto &lf = prog.func(leaf).body;
    lf.push_back(loadAbs(5, 0x100000 + 8 * 5));
    lf.push_back(add(6, 6, 5));
    lf.push_back(ret());

    prog.layout();
    return prog;
}

} // namespace

// --------------------------------------------------------------------
// Estimator math

TEST(SamplingEstimator, MeanAndCiOnKnownVarianceStream)
{
    // Window CPIs 1, 2, 3, 4: mean 2.5, sample variance
    // ((1-2.5)^2 + ... + (4-2.5)^2) / 3 = 5/3.
    SamplingEstimator est;
    est.addWindow(100, 100);
    est.addWindow(200, 100);
    est.addWindow(300, 100);
    est.addWindow(400, 100);

    EXPECT_EQ(est.windows(), 4u);
    EXPECT_EQ(est.sampledInsts(), 400u);
    EXPECT_EQ(est.sampledCycles(), 1000u);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 2.5);
    double expect_ci = 1.96 * std::sqrt((5.0 / 3.0) / 4.0);
    EXPECT_NEAR(est.cpiCi95(), expect_ci, 1e-12);
    EXPECT_NEAR(est.relError(), expect_ci / 2.5, 1e-12);
}

TEST(SamplingEstimator, ZeroVarianceStreamHasZeroCi)
{
    SamplingEstimator est;
    for (int i = 0; i < 8; ++i)
        est.addWindow(300, 100);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 3.0);
    // The s^2 estimator is clamped at zero, so float cancellation
    // can never produce a negative variance (and a NaN ci).
    EXPECT_DOUBLE_EQ(est.cpiCi95(), 0.0);
}

TEST(SamplingEstimator, FewerThanTwoWindowsHaveNoCi)
{
    SamplingEstimator est;
    EXPECT_DOUBLE_EQ(est.cpiMean(), 0.0);
    EXPECT_DOUBLE_EQ(est.cpiCi95(), 0.0);
    est.addWindow(250, 100);
    EXPECT_EQ(est.windows(), 1u);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 2.5);
    EXPECT_DOUBLE_EQ(est.cpiCi95(), 0.0); // variance not estimable
}

TEST(SamplingEstimator, IgnoresEmptyWindowsAndResets)
{
    SamplingEstimator est;
    est.addWindow(500, 0); // no instructions: no observation
    EXPECT_EQ(est.windows(), 0u);
    est.addWindow(100, 50);
    est.addWindow(300, 150);
    EXPECT_EQ(est.windows(), 2u);
    est.reset();
    EXPECT_EQ(est.windows(), 0u);
    EXPECT_EQ(est.sampledInsts(), 0u);
    EXPECT_DOUBLE_EQ(est.cpiMean(), 0.0);
}

// --------------------------------------------------------------------
// Spec grammar

TEST(SamplingParams, ParseAndSpecRoundTrip)
{
    EXPECT_FALSE(SamplingParams::parse("").enabled);
    EXPECT_FALSE(SamplingParams::parse("0").enabled);
    EXPECT_FALSE(SamplingParams::parse("off").enabled);
    EXPECT_EQ(SamplingParams::parse("off").spec(), "off");

    SamplingParams def = SamplingParams::parse("1");
    EXPECT_TRUE(def.enabled);
    EXPECT_EQ(def, SamplingParams::parse("on"));
    EXPECT_EQ(def, SamplingParams::parse("default"));
    EXPECT_EQ(def, SamplingParams::parse(def.spec()));

    SamplingParams p = SamplingParams::parse(
        "w=1000,warm=2000,period=9000,seed=7");
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.windowInsts, 1000u);
    EXPECT_EQ(p.warmingInsts, 2000u);
    EXPECT_EQ(p.periodInsts, 9000u);
    EXPECT_EQ(p.seed, 7u);
    EXPECT_EQ(SamplingParams::parse(p.spec()), p);

    SamplingParams inf = SamplingParams::parse("w=inf");
    EXPECT_EQ(inf.windowInsts, SamplingParams::kInfiniteWindow);
    EXPECT_EQ(SamplingParams::parse(inf.spec()), inf);
}

TEST(SamplingParams, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(SamplingParams::parse("bogus"),
                 std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("w="), std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("w=12x"),
                 std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("zzz=5"),
                 std::invalid_argument);
    EXPECT_THROW(SamplingParams::parse("w=0"), std::invalid_argument);
    // Period must fit a window plus its warming.
    EXPECT_THROW(
        SamplingParams::parse("w=5000,warm=6000,period=10000"),
        std::invalid_argument);
}

// --------------------------------------------------------------------
// Pipeline-level guarantees

/**
 * Warming equivalence: with an infinite detailed window the sampling
 * controller never leaves the detailed phase, so the run must be
 * indistinguishable from the plain detailed loop — identical cycles,
 * committed uops, architectural state, and every counter.
 */
TEST(SampledPipeline, InfiniteWindowMatchesDetailedExactly)
{
    Program prog = loopProgram(1500);

    Memory ref_mem;
    seedMemory(ref_mem);
    Pipeline ref(prog, ref_mem, sampledParams());
    auto ref_res = ref.run(0);
    EXPECT_FALSE(ref.sampledMode());

    Memory sm_mem;
    seedMemory(sm_mem);
    Pipeline sm(prog, sm_mem, sampledParams(infiniteWindow()));
    auto sm_res = sm.run(0);
    EXPECT_TRUE(sm.sampledMode());

    EXPECT_EQ(ref_res.cycles, sm_res.cycles);
    EXPECT_EQ(ref_res.instructions, sm_res.instructions);
    EXPECT_EQ(sm.sampler().windows(), 0u); // never left the window
    for (unsigned r = 1; r <= 9; ++r)
        EXPECT_EQ(ref.regValue(r), sm.regValue(r)) << "reg " << r;
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                  sm_mem.read(0x100000 + i * 8))
            << "slot " << i;
    expectSameStats(ref.stats(), sm.stats(), "loop");
}

/**
 * Functional correctness under real sampling: the phase machine must
 * retire most instructions through the functional path (cheap) while
 * leaving architectural state — registers, memory, committed-uop
 * count — identical to the detailed run's. Timing is an estimate by
 * design and is not compared.
 */
TEST(SampledPipeline, FiniteWindowsPreserveArchitecturalState)
{
    Program prog = loopProgram(1500);

    Memory ref_mem;
    seedMemory(ref_mem);
    Pipeline ref(prog, ref_mem, sampledParams());
    auto ref_res = ref.run(0);

    Memory sm_mem;
    seedMemory(sm_mem);
    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = 400;
    sp.warmingInsts = 600;
    sp.periodInsts = 2500;
    Pipeline sm(prog, sm_mem, sampledParams(sp));
    auto sm_res = sm.run(0);
    ASSERT_TRUE(sm.sampledMode());

    EXPECT_EQ(ref_res.instructions, sm_res.instructions);
    for (unsigned r = 1; r <= 9; ++r)
        EXPECT_EQ(ref.regValue(r), sm.regValue(r)) << "reg " << r;
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                  sm_mem.read(0x100000 + i * 8))
            << "slot " << i;
    EXPECT_EQ(ref_mem.read(0x100200), sm_mem.read(0x100200));

    // The estimator actually sampled: at least two windows closed,
    // and the detailed fraction is a strict subset of the stream.
    const SamplingEstimator &est = sm.sampler();
    EXPECT_GE(est.windows(), 2u);
    EXPECT_LT(est.sampledInsts(), sm_res.instructions);
    EXPECT_GT(est.cpiMean(), 0.0);

    // The CPI estimate lands near the truth for this uniform loop.
    double exact_cpi = static_cast<double>(ref_res.cycles) /
                       static_cast<double>(ref_res.instructions);
    EXPECT_NEAR(est.cpiMean(), exact_cpi, 0.25 * exact_cpi);
}

/**
 * Both guarantees above over random programs, under every scheme:
 * an infinite window matches the detailed run exactly, and short
 * windows (most of the stream retired functionally, wild indirect
 * targets included) preserve its architectural state.
 */
TEST_P(FastForwardDifferential, IndistinguishableUnderEveryScheme)
{
    std::uint64_t seed = GetParam();
    testsupport::ProgramGen gen(seed * 37 + 11);
    Program prog = gen.make(5 + seed % 4);

    defenses::FencePolicy fence;
    defenses::DomPolicy dom;
    defenses::SttPolicy stt;
    defenses::SpotMitigationPolicy spot;
    std::vector<std::pair<const char *, SpeculationPolicy *>>
        schemes = {{"unsafe", nullptr}, {"fence", &fence},
                   {"dom", &dom},       {"stt", &stt},
                   {"spot", &spot}};

    SamplingParams shortWindows;
    shortWindows.enabled = true;
    shortWindows.windowInsts = 8;
    shortWindows.warmingInsts = 8;
    shortWindows.periodInsts = 32;
    shortWindows.seed = seed;

    for (auto [name, policy] : schemes) {
        std::string what = name;
        what += " seed " + std::to_string(seed);

        Memory ref_mem;
        seedMemory(ref_mem);
        Pipeline ref(prog, ref_mem, sampledParams());
        ref.setPolicy(policy);
        auto ref_res = ref.run(0);

        Memory inf_mem;
        seedMemory(inf_mem);
        Pipeline inf(prog, inf_mem, sampledParams(infiniteWindow()));
        inf.setPolicy(policy);
        auto inf_res = inf.run(0);
        ASSERT_TRUE(inf.sampledMode()) << what;

        EXPECT_EQ(ref_res.cycles, inf_res.cycles) << what;
        EXPECT_EQ(ref_res.instructions, inf_res.instructions) << what;
        for (unsigned r = 1; r <= 9; ++r)
            EXPECT_EQ(ref.regValue(r), inf.regValue(r))
                << what << " reg " << r;
        for (unsigned i = 0; i < 64; ++i)
            EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                      inf_mem.read(0x100000 + i * 8))
                << what << " slot " << i;
        expectSameStats(ref.stats(), inf.stats(), what);

        Memory sm_mem;
        seedMemory(sm_mem);
        Pipeline sm(prog, sm_mem, sampledParams(shortWindows));
        sm.setPolicy(policy);
        auto sm_res = sm.run(0);
        ASSERT_TRUE(sm.sampledMode()) << what;

        EXPECT_EQ(ref_res.instructions, sm_res.instructions) << what;
        for (unsigned r = 1; r <= 9; ++r)
            EXPECT_EQ(ref.regValue(r), sm.regValue(r))
                << what << " reg " << r;
        for (unsigned i = 0; i < 64; ++i)
            EXPECT_EQ(ref_mem.read(0x100000 + i * 8),
                      sm_mem.read(0x100000 + i * 8))
                << what << " slot " << i;
        EXPECT_LT(sm.sampler().sampledInsts(), sm_res.instructions)
            << what << ": the functional path retired nothing";
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, FastForwardDifferential,
                         ::testing::Range<std::uint64_t>(1, 33));

/**
 * Wild indirect-call targets resolve to an architected no-op call —
 * the rule shared between the interpreter and the pipeline
 * (sim/program.hh validCallTarget) — on the functional path as on
 * the detailed one. The padding spans several I-cache lines, so the
 * first window closes at a line-miss drain and the wild call retires
 * functionally.
 */
TEST(SampledPipeline, WildIndirectTargetMatchesDetailed)
{
    Program prog;
    FuncId f = prog.addFunction("main", false);
    auto &body = prog.func(f).body;
    for (unsigned i = 0; i < 48; ++i)
        body.push_back(addImm(3, 3, 1));
    body.push_back(movImm(1, 0x7fffffff)); // not a function id
    body.push_back(indirectCall(1));
    body.push_back(movImm(2, 1));
    body.push_back(ret());
    prog.layout();

    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = 1;
    sp.warmingInsts = 1;
    sp.periodInsts = 1'000'000;

    Memory ref_mem, sm_mem;
    Pipeline ref(prog, ref_mem, sampledParams());
    Pipeline sm(prog, sm_mem, sampledParams(sp));
    auto ref_res = ref.run(f);
    auto sm_res = sm.run(f);

    // The wild call architecturally skips to fall-through: the next
    // op commits in both modes.
    EXPECT_EQ(ref.regValue(2), 1u);
    EXPECT_EQ(sm.regValue(2), 1u);
    EXPECT_EQ(ref.regValue(3), sm.regValue(3));
    EXPECT_EQ(ref_res.instructions, sm_res.instructions);
    EXPECT_LT(sm.sampler().sampledInsts(), 48u)
        << "the wild call should retire on the functional path";
}

/**
 * A run that halts inside a functional phase ends on the halt
 * cycle. Functional phases freeze the clock, so every cycle of such
 * a run elapses inside the closed detailed windows, plus the
 * engagement cycle that opened the first one. The branch below is
 * mispredicted onto a DRAM-missing load; the squashed load's
 * completion stays scheduled past the drain where the window
 * closes, and must not be waited for.
 */
TEST(SampledPipeline, FunctionalHaltEndsTheRunOnTheHaltCycle)
{
    Program prog;
    FuncId f = prog.addFunction("main", false);
    prog.func(f).body = {
        movImm(1, 0),
        branchImm(Cond::Ne, 1, 0, 4), // cold predictor: taken
        movImm(3, 7),
        ret(),
        loadAbs(2, 0x300000), // wrong path: squashed in flight
        ret(),
    };
    prog.layout();

    SamplingParams sp;
    sp.enabled = true;
    sp.windowInsts = 1;
    sp.warmingInsts = 1;
    sp.periodInsts = 1'000'000;

    Memory mem;
    Pipeline sm(prog, mem, sampledParams(sp));
    auto res = sm.run(f);
    ASSERT_TRUE(sm.sampledMode());
    EXPECT_EQ(sm.regValue(3), 7u);
    EXPECT_EQ(res.instructions, 4u);

    const SamplingEstimator &est = sm.sampler();
    ASSERT_EQ(est.windows(), 1u);
    EXPECT_LT(est.sampledInsts(), res.instructions)
        << "the run should end on the functional path";
    EXPECT_EQ(res.cycles, est.sampledCycles() + 1);
}
