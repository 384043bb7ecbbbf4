/**
 * @file
 * Loads parked behind the fence/store front: a load that fails the
 * ordering check waits outside the ready queue until the front has
 * passed it. These pin the cycles and `load_issue_wait` of the three
 * edge cases (values the every-cycle retry formulation produces) and
 * the issue cycles the trace records.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/memory.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "sim/trace.hh"

using namespace perspective::sim;

namespace
{

/** Issue cycle of every committed op, by op text. */
std::map<std::string, Cycle>
issueCycles(const trace::EventLog &log)
{
    std::map<std::string, Cycle> out;
    for (const trace::Event &ev : log.snapshot())
        if (ev.flag == trace::Flag::Commit)
            out[ev.name] = ev.issue;
    return out;
}

struct Pinned
{
    Cycle cycles;
    std::uint64_t loads;
    std::uint64_t squashed;
    std::uint64_t waitCount;
    double waitMean;
    std::uint64_t waitMax;
};

/** Run @p prog's entry once under the event log and check the pins. */
std::map<std::string, Cycle>
runPinned(const Program &prog, Memory &mem, const Pinned &want)
{
    trace::EventLog log;
    trace::setEventLog(&log);
    Pipeline cpu(prog, mem);
    RunResult r = cpu.run(0);
    trace::setEventLog(nullptr);
    const Histogram &wait =
        cpu.stats().allHistograms().at("load_issue_wait");
    EXPECT_EQ(r.cycles, want.cycles);
    EXPECT_EQ(cpu.stats().get("loads"), want.loads);
    EXPECT_EQ(cpu.stats().get("squashed_uops"), want.squashed);
    EXPECT_EQ(wait.count(), want.waitCount);
    EXPECT_DOUBLE_EQ(wait.mean(), want.waitMean);
    EXPECT_EQ(wait.max(), want.waitMax);
    return issueCycles(log);
}

} // namespace

TEST(FrontParking, LoadIssuesInTheWalkItsStoreIssues)
{
    // The store's address waits on a multiply chain; the younger load
    // is ready at dispatch and parks behind it. When the store issues,
    // the same walk reaches the load and issues it too.
    Program prog;
    prog.addFunction("main", false);
    prog.func(0).body = {
        movImm(1, 2),
        mul(3, 1, 1),
        mul(3, 3, 1),
        addImm(3, 3, 0x13000),
        store(3, 0, 1),
        loadAbs(4, 0x14000),
        ret(),
    };
    prog.layout();
    Memory mem;
    auto issue = runPinned(prog, mem, {261, 1, 0, 1, 9.0, 9});
    ASSERT_TRUE(issue.count("store, r3, r1"));
    ASSERT_TRUE(issue.count("load r4 [imm=81920]"));
    EXPECT_EQ(issue["load r4 [imm=81920]"], issue["store, r3, r1"]);
}

TEST(FrontParking, SquashDropsParkedLoads)
{
    // A cold predictor takes a not-taken branch on a slow load. The
    // wrong path's loads park behind a store whose address waits on
    // that load too, so the squash lands while they are parked. The
    // correct path then recycles their ROB slots behind a store of
    // its own: a parked entry that survived the squash would be
    // unparked into a recycled slot there.
    Program prog;
    prog.addFunction("main", false);
    prog.func(0).body = {
        loadAbs(1, 0x20000),          // 0: slow (cold miss), = 1
        branchImm(Cond::Eq, 1, 0, 7), // 1: not taken
        mul(2, 1, 1),                 // 2: correct path
        mul(2, 2, 1),                 // 3
        store(2, 0x31000, 1),         // 4
        loadAbs(5, 0x24000),          // 5: parks, then issues
        jump(12),                     // 6
        mul(2, 1, 1),                 // 7: wrong path
        store(2, 0x30000, 1),         // 8
        loadAbs(5, 0x21000),          // 9: parks
        loadAbs(6, 0x22000),          // 10: parks
        loadAbs(7, 0x23000),          // 11: parks
        addImm(6, 5, 1),              // 12
        ret(),                        // 13
    };
    prog.layout();
    Memory mem;
    mem.write(0x20000, 1);
    // Two loads issue (the flag and the correct path's); the three
    // wrong-path loads are squashed parked, never issued.
    auto issue = runPinned(prog, mem, {412, 2, 7, 2, 4.0, 7});
    ASSERT_TRUE(issue.count("store, r2, r1 [imm=200704]"));
    ASSERT_TRUE(issue.count("load r5 [imm=147456]"));
    EXPECT_EQ(issue["load r5 [imm=147456]"],
              issue["store, r2, r1 [imm=200704]"]);
}

TEST(FrontParking, LoadBehindFenceWaitsForItsCompletion)
{
    // A fence completes only at the ROB head, behind a slow load; the
    // younger load parks until the fence is Done and issues in that
    // cycle's walk.
    Program prog;
    prog.addFunction("main", false);
    prog.func(0).body = {
        loadAbs(1, 0x20000),
        fence(),
        loadAbs(2, 0x21000),
        ret(),
    };
    prog.layout();
    Memory mem;
    auto issue = runPinned(prog, mem, {395, 2, 0, 2, 72.0, 143});
    ASSERT_TRUE(issue.count("fence"));
    ASSERT_TRUE(issue.count("load r2 [imm=135168]"));
    EXPECT_EQ(issue["load r2 [imm=135168]"], issue["fence"] + 1);
}
