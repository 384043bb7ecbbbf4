/**
 * @file
 * Property-based validation of the out-of-order pipeline: for
 * randomly generated (but well-formed) programs, the speculative,
 * squashing, policy-gated pipeline must produce exactly the same
 * architectural state as the in-order reference interpreter — under
 * every defense scheme, run in detail and sampled.
 */

#include <string>

#include <gtest/gtest.h>

#include "defenses/schemes.hh"
#include "kernel/interp.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "support/program_gen.hh"

using namespace perspective;
using namespace perspective::sim;

namespace
{

struct PipelineEquivalence
    : ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(PipelineEquivalence, MatchesInterpreterUnderEveryScheme)
{
    std::uint64_t seed = GetParam();
    testsupport::ProgramGen gen(seed * 31 + 7);
    Program prog = gen.make(5 + seed % 4);

    auto seedMemory = [](Memory &mem) {
        for (unsigned i = 0; i < 64; ++i)
            mem.write(0x100000 + i * 8, i * 3 + 1);
    };

    // Reference: architectural interpreter.
    Memory ref_mem;
    seedMemory(ref_mem);
    kernel::Interpreter ref(prog, ref_mem);
    auto ref_res = ref.run(0, 2'000'000);
    ASSERT_TRUE(ref_res.completed) << "seed " << seed;

    defenses::FencePolicy fence;
    defenses::DomPolicy dom;
    defenses::SttPolicy stt;
    defenses::SpotMitigationPolicy spot;
    std::vector<std::pair<const char *, SpeculationPolicy *>>
        schemes = {{"unsafe", nullptr}, {"fence", &fence},
                   {"dom", &dom},       {"stt", &stt},
                   {"spot", &spot}};

    // Detailed, then sampled with most of the stream retired by the
    // functional skip phase, then by the functional warm phase.
    PipelineParams detailed;
    PipelineParams skipHeavy;
    skipHeavy.sampling.enabled = true;
    skipHeavy.sampling.windowInsts = 4;
    skipHeavy.sampling.warmingInsts = 4;
    skipHeavy.sampling.periodInsts = 128;
    skipHeavy.sampling.seed = seed;
    PipelineParams warmHeavy = skipHeavy;
    warmHeavy.sampling.warmingInsts = 120;
    std::vector<std::pair<const char *, const PipelineParams *>> modes = {
        {"detailed", &detailed},
        {"skip-dominated", &skipHeavy},
        {"warm-dominated", &warmHeavy}};

    for (auto [name, policy] : schemes) {
        for (auto [mode, params] : modes) {
            std::string what = std::string(name) + " " + mode +
                               " seed " + std::to_string(seed);
            Memory mem;
            seedMemory(mem);
            Pipeline cpu(prog, mem, *params);
            cpu.setPolicy(policy);
            auto res = cpu.run(0);
            ASSERT_EQ(cpu.sampledMode(), params->sampling.enabled)
                << what;

            EXPECT_EQ(res.instructions, ref_res.uops) << what;
            for (unsigned r = 1; r <= 9; ++r) {
                EXPECT_EQ(cpu.regValue(r), ref.regValue(r))
                    << what << " reg " << r;
            }
            for (unsigned i = 0; i < 64; ++i) {
                EXPECT_EQ(mem.read(0x100000 + i * 8),
                          ref_mem.read(0x100000 + i * 8))
                    << what << " slot " << i;
            }
            if (cpu.sampledMode()) {
                EXPECT_LT(cpu.sampler().sampledInsts(), res.instructions)
                    << what << ": the functional path retired nothing";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PipelineEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));
