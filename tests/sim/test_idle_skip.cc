/**
 * @file
 * Idle-cycle skipping in Pipeline::run (DESIGN §5.5): a policy-blocked
 * load waits out a DRAM fill behind the branch that depends on it,
 * after a kernel-entry stall. Every cycle the run loop jumps over must
 * be charged exactly as the cycle-by-cycle loop charged it, so the
 * per-cycle counters below are pinned to the values the loop without
 * skipping produced.
 */

#include <gtest/gtest.h>

#include "defenses/schemes.hh"
#include "sim/memory.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"

using namespace perspective::sim;
using namespace perspective::defenses;

namespace
{

struct Pinned
{
    std::uint64_t cycles;
    std::uint64_t blockedCycles;
    std::uint64_t gateElided;
    std::uint64_t robSamples;
    double robMean;
    std::uint64_t robMax;
};

void
runBlockedFill(SpeculationPolicy &pol, const Pinned &want)
{
    Program prog;
    FuncId user = prog.addFunction("main", false);
    FuncId kern = prog.addFunction("sys_entry", true);
    prog.func(user).body = {call(kern), ret()};
    prog.func(kern).body = {
        loadAbs(1, 0x40000),          // cold: DRAM fill
        branchImm(Cond::Eq, 1, 0, 2), // unresolved until the fill
        loadAbs(2, 0x50000),          // speculative: gated
        ret(),
    };
    prog.layout();

    Memory mem;
    Pipeline cpu(prog, mem); // detailed telemetry on
    cpu.setPolicy(&pol);
    RunResult r = cpu.run(user);

    EXPECT_EQ(r.instructions, 6u);
    StatSet &st = cpu.stats();
    EXPECT_EQ(r.cycles, want.cycles);
    EXPECT_EQ(st.get("blocked_cycles"), want.blockedCycles);
    // More cycles were skipped than the run spent without a blocked
    // load, so some of the skipped ones were charged as blocked.
    EXPECT_GT(cpu.cyclesSkipped(), want.cycles - want.blockedCycles);
    EXPECT_EQ(st.get("gate.elided"), want.gateElided);
    const Histogram &rob = st.histogram("rob_occupancy");
    EXPECT_EQ(rob.count(), want.robSamples);
    EXPECT_DOUBLE_EQ(rob.mean(), want.robMean);
    EXPECT_EQ(rob.max(), want.robMax);
}

} // namespace

TEST(IdleSkip, FenceBlockedLoadWaitsOutDramFill)
{
    FencePolicy fence;
    runBlockedFill(fence, {544, 141, 140, 543, 2.0497237569060776, 5});
}

TEST(IdleSkip, DomBlockedLoadWaitsOutDramFill)
{
    DomPolicy dom;
    runBlockedFill(dom, {544, 141, 140, 543, 2.0497237569060776, 5});
}
