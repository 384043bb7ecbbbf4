#include <gtest/gtest.h>

#include <new>
#include <thread>

#include "sim/memory.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"
#include "sim/trace.hh"

using namespace perspective::sim;

namespace
{

struct TraceFixture : ::testing::Test
{
    ~TraceFixture() override { trace::setEventLog(nullptr); }
};

RunResult
runTinyProgram()
{
    Program prog;
    FuncId f = prog.addFunction("tiny", false);
    prog.func(f).body = {movImm(1, 7), addImm(2, 1, 1), ret()};
    prog.layout();
    Memory mem;
    Pipeline cpu(prog, mem);
    return cpu.run(f);
}

} // namespace

TEST_F(TraceFixture, EventLogCoversWrongPathWork)
{
    // The event log shows speculation: every retired op is one commit
    // span, and the ops fetched down a mispredicted fall-through path
    // show up as squash spans.
    Program prog;
    FuncId f = prog.addFunction("spec", false);
    Memory mem;
    prog.func(f).body = {
        loadAbs(1, 0x1000),
        branchImm(Cond::Eq, 1, 1, 4),
        movImm(2, 666),
        nop(),
        ret(),
    };
    prog.layout();
    Pipeline cpu(prog, mem);
    // Train the branch not-taken, then take it: the fall-through
    // spec[2..3] is now the wrong path.
    for (int i = 0; i < 3; ++i)
        cpu.run(f);
    mem.write(0x1000, 1);
    cpu.stats().clear();

    trace::EventLog log;
    trace::setEventLog(&log);
    cpu.run(f);
    trace::setEventLog(nullptr);
    ASSERT_EQ(log.dropped(), 0u);
    ASSERT_GT(cpu.stats().get("mispredicts"), 0u);

    std::uint64_t commits = 0;
    bool wrongPathSquashed = false;
    for (const trace::Event &ev : log.snapshot()) {
        if (ev.flag == trace::Flag::Commit)
            ++commits;
        if (ev.flag == trace::Flag::Squash &&
            (ev.func == "spec[2]" || ev.func == "spec[3]"))
            wrongPathSquashed = true;
    }
    EXPECT_EQ(commits, cpu.stats().get("committed"));
    EXPECT_TRUE(wrongPathSquashed);
}

TEST_F(TraceFixture, EventLogRecordsCommitSpans)
{
    trace::EventLog log;
    trace::setEventLog(&log);
    EXPECT_TRUE(trace::eventsEnabled());
    runTinyProgram();
    trace::setEventLog(nullptr);

    auto events = log.snapshot();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(log.dropped(), 0u);
    bool saw_ret = false;
    for (const trace::Event &ev : events) {
        if (ev.flag != trace::Flag::Commit)
            continue;
        EXPECT_GT(ev.dur, 0u) << "commit events are spans";
        EXPECT_EQ(ev.func.rfind("tiny[", 0), 0u) << ev.func;
        if (ev.name.find("ret") != std::string::npos)
            saw_ret = true;
    }
    EXPECT_TRUE(saw_ret);
}

TEST_F(TraceFixture, EventLogDropsPastCapacityAndCounts)
{
    trace::EventLog log(4);
    for (int i = 0; i < 10; ++i) {
        trace::Event ev;
        ev.seq = static_cast<std::uint64_t>(i);
        log.record(std::move(ev));
    }
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.dropped(), 6u);
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.dropped(), 0u);
}

TEST_F(TraceFixture, EventLogAttributesDropsPerLane)
{
    // Drops must be attributable to the lane (recording thread) that
    // overflowed, not just a global tally — the sweep JSON surfaces
    // the per-lane vector and bench_report warns on it.
    trace::EventLog log(3);
    std::thread other([&log] {
        for (int i = 0; i < 5; ++i)
            log.record(trace::Event{});
    });
    other.join();
    for (int i = 0; i < 4; ++i)
        log.record(trace::Event{});

    auto perLane = log.droppedByLane();
    ASSERT_EQ(perLane.size(), 2u); // two lanes ever assigned
    EXPECT_EQ(perLane[0] + perLane[1], log.dropped());
    EXPECT_EQ(log.dropped(), 6u); // 9 records into capacity 3
    EXPECT_EQ(perLane[0], 2u);    // other thread: 5 - 3 stored
    EXPECT_EQ(perLane[1], 4u);    // this thread: all dropped

    log.clear();
    for (std::uint64_t d : log.droppedByLane())
        EXPECT_EQ(d, 0u);
}

TEST_F(TraceFixture, LeakAndWindowFlagsRoundTrip)
{
    EXPECT_STREQ(trace::flagName(trace::Flag::Leak), "leak");
    EXPECT_STREQ(trace::flagName(trace::Flag::Window), "window");
}

TEST_F(TraceFixture, EventLogDetachedMeansNoRecording)
{
    trace::EventLog log;
    trace::setEventLog(&log);
    trace::setEventLog(nullptr);
    EXPECT_FALSE(trace::eventsEnabled());
    runTinyProgram();
    EXPECT_EQ(log.size(), 0u);
}

TEST_F(TraceFixture, EventLogLanesSurviveStorageReuse)
{
    // Regression test: lanes belong to the log, not to the address it
    // lives at. A log built in a dead log's storage must hand this
    // thread a fresh lane, or two threads share one track and the
    // per-lane drop vector undercounts the lanes that recorded.
    alignas(trace::EventLog) unsigned char storage[sizeof(trace::EventLog)];
    auto *dead = new (storage) trace::EventLog(1);
    dead->record(trace::Event{});
    dead->~EventLog();

    auto *log = new (storage) trace::EventLog(3);
    std::thread other([log] {
        for (int i = 0; i < 5; ++i)
            log->record(trace::Event{});
    });
    other.join();
    for (int i = 0; i < 4; ++i)
        log->record(trace::Event{});

    auto perLane = log->droppedByLane();
    ASSERT_EQ(perLane.size(), 2u);
    EXPECT_EQ(perLane[0], 2u); // other thread: 5 - 3 stored
    EXPECT_EQ(perLane[1], 4u); // this thread: all dropped
    EXPECT_EQ(log->dropped(), 6u);
    for (const trace::Event &ev : log->snapshot())
        EXPECT_EQ(ev.lane, 0u);
    log->~EventLog();
}
