/**
 * @file
 * The gate inputs a policy pulls on demand (SpecContext::tainted() and
 * l1dHit(), policy.hh) and the GateWake source list:
 *
 *  - pulling an input is observation-only: a policy that reads both on
 *    every gate check and then allows like Unsafe leaves every counter
 *    and histogram exactly where Unsafe leaves them;
 *  - the answers are the pipeline's state at the gate call;
 *  - a GateWake with more sources than it can list wakes every cycle
 *    instead of dropping one.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/memory.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "support/program_gen.hh"

using namespace perspective;
using namespace perspective::sim;

namespace
{

/** Reads both on-demand inputs on every gate check, then allows. */
class ProbingPolicy : public SpeculationPolicy
{
  public:
    explicit ProbingPolicy(Pipeline &cpu) : cpu_(cpu) {}

    Verdict
    gateLoad(const SpecContext &ctx) override
    {
        const bool hit = ctx.l1dHit();
        EXPECT_EQ(hit, cpu_.caches().probeL1D(ctx.dataVa));
        // Asking twice in one call reads the same state.
        EXPECT_EQ(ctx.tainted(), ctx.tainted());
        ++checks;
        hits += hit;
        tainted += ctx.tainted();
        return {};
    }

    const char *name() const override { return "probing"; }

    std::uint64_t checks = 0;
    std::uint64_t hits = 0;
    std::uint64_t tainted = 0;

  private:
    Pipeline &cpu_;
};

struct Totals
{
    std::uint64_t checks = 0;
    std::uint64_t hits = 0;
    std::uint64_t tainted = 0;
};

void
seedMemory(Memory &mem)
{
    for (unsigned i = 0; i < 64; ++i)
        mem.write(0x100000 + i * 8, i * 3 + 1);
}

/** Run @p prog from function 0 under Unsafe and under the probing
 * policy; every counter and histogram must agree. */
void
expectProbingIsUnsafe(const Program &prog, const std::string &what,
                      Totals &totals)
{
    Memory mem_u;
    seedMemory(mem_u);
    Pipeline unsafe(prog, mem_u);
    const RunResult ru = unsafe.run(0);

    Memory mem_p;
    seedMemory(mem_p);
    Pipeline probed(prog, mem_p);
    ProbingPolicy pol(probed);
    probed.setPolicy(&pol);
    const RunResult rp = probed.run(0);

    EXPECT_EQ(rp.cycles, ru.cycles) << what;
    EXPECT_EQ(rp.instructions, ru.instructions) << what;
    EXPECT_EQ(probed.stats().all(), unsafe.stats().all()) << what;
    const auto &hu = unsafe.stats().allHistograms();
    const auto &hp = probed.stats().allHistograms();
    ASSERT_EQ(hp.size(), hu.size()) << what;
    for (const auto &[name, h] : hu) {
        const Histogram &o = hp.at(name);
        EXPECT_EQ(o.count(), h.count()) << what << " " << name;
        EXPECT_EQ(o.min(), h.min()) << what << " " << name;
        EXPECT_EQ(o.max(), h.max()) << what << " " << name;
        EXPECT_DOUBLE_EQ(o.mean(), h.mean()) << what << " " << name;
        for (unsigned k = 0; k < Histogram::kNumBuckets; ++k)
            EXPECT_EQ(o.bucket(k), h.bucket(k))
                << what << " " << name << " bucket " << k;
    }
    EXPECT_EQ(pol.checks, probed.stats().get("gate.checks")) << what;
    totals.checks += pol.checks;
    totals.hits += pol.hits;
    totals.tainted += pol.tainted;
}

} // namespace

TEST(GateInputs, ReadingThemIsObservationOnly)
{
    Totals totals;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        testsupport::ProgramGen gen(seed * 31 + 7);
        const Program prog = gen.make(5 + seed % 4);
        expectProbingIsUnsafe(prog, "seed " + std::to_string(seed),
                              totals);
    }

    // Generated programs load only absolute addresses, so add a
    // dependent pair: behind a branch on a cold load, a speculative
    // load feeds the address of a second one, whose address is
    // tainted until the branch resolves.
    Program v1;
    FuncId user = v1.addFunction("main", false);
    FuncId kern = v1.addFunction("sys_entry", true);
    v1.func(user).body = {loadAbs(5, 0x100000), // warm the index line
                          call(kern), ret()};
    v1.func(kern).body = {
        loadAbs(1, 0x40000),          // cold: DRAM fill
        branchImm(Cond::Eq, 1, 0, 2), // falls through; resolves late
        loadAbs(2, 0x100000),         // speculative
        load(3, 2, 0x200000),         // address depends on r2
        ret(),
    };
    v1.layout();
    expectProbingIsUnsafe(v1, "v1 shape", totals);

    // The probe saw both answers, so the equalities above cover reads
    // that returned true as well as false.
    EXPECT_GT(totals.checks, totals.hits);
    EXPECT_GT(totals.hits, 0u);
    EXPECT_GT(totals.tainted, 0u);
}

TEST(GateInputs, ContextWithoutInputsReadsFalse)
{
    SpecContext ctx;
    ctx.speculative = true;
    EXPECT_FALSE(ctx.tainted());
    EXPECT_FALSE(ctx.l1dHit());
}

TEST(GateWake, FifthSourceFallsBackToEveryCycle)
{
    std::uint64_t gens[GateWake::kMaxGens + 1] = {};
    GateWake w = GateWake::untilInputs();
    for (unsigned i = 0; i < GateWake::kMaxGens; ++i)
        w.depend(&gens[i]);
    EXPECT_FALSE(w.everyCycle);
    EXPECT_EQ(w.numGens, GateWake::kMaxGens);
    // An absent source lists nothing, so a full array takes it.
    w.depend(nullptr);
    EXPECT_FALSE(w.everyCycle);

    // A fifth real source cannot be listed. Debug builds stop on it;
    // release builds wake every cycle, which is exact by construction.
    EXPECT_DEBUG_DEATH(w.depend(&gens[GateWake::kMaxGens]),
                       "more than kMaxGens");
#ifdef NDEBUG
    EXPECT_TRUE(w.everyCycle);
    EXPECT_EQ(w.numGens, GateWake::kMaxGens);
    w.depend(nullptr); // a later absent source does not undo it
    EXPECT_TRUE(w.everyCycle);
#endif
}
