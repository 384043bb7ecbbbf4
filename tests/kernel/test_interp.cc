#include <gtest/gtest.h>

#include "kernel/interp.hh"
#include "sim/pipeline.hh"
#include "sim/program.hh"

using namespace perspective::kernel;
using namespace perspective::sim;

TEST(Interp, ArithmeticAndMemory)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 21),
        shlImm(2, 1, 1),
        movImm(3, 0x9000),
        store(3, 0, 2),
        load(4, 3, 0),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(4), 42u);
    EXPECT_EQ(mem.read(0x9000), 42u);
}

TEST(Interp, BranchesAndLoops)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 0),
        movImm(2, 0),
        branchImm(Cond::Ge, 1, 5, 6),
        add(2, 2, 1),
        addImm(1, 1, 1),
        jump(2),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    in.run(f);
    EXPECT_EQ(in.regValue(2), 10u); // 0+1+2+3+4
}

TEST(Interp, IndirectCallThroughMemory)
{
    Program prog;
    FuncId callee = prog.addFunction("callee", true);
    FuncId f = prog.addFunction("main", true);
    prog.func(callee).body = {movImm(5, 77), ret()};
    prog.func(f).body = {
        loadAbs(1, 0xa000),
        indirectCall(1),
        ret(),
    };
    prog.layout();
    Memory mem;
    mem.write(0xa000, callee);
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(5), 77u);
}

TEST(Interp, OnFuncVisitorSeesCallChain)
{
    Program prog;
    FuncId leaf = prog.addFunction("leaf", true);
    FuncId mid = prog.addFunction("mid", true);
    FuncId top = prog.addFunction("top", true);
    prog.func(leaf).body = {ret()};
    prog.func(mid).body = {call(leaf), ret()};
    prog.func(top).body = {call(mid), ret()};
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    std::vector<FuncId> seen;
    in.run(top, 1000, [&](FuncId f) { seen.push_back(f); });
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], top);
    EXPECT_EQ(seen[1], mid);
    EXPECT_EQ(seen[2], leaf);
}

TEST(Interp, DryStoresLeaveMemoryUntouched)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 0xb000),
        movImm(2, 5),
        store(1, 0, 2),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    in.setDryStores(true);
    in.run(f);
    EXPECT_EQ(mem.read(0xb000), 0u);
}

TEST(Interp, BudgetExhaustionReportsIncomplete)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {jump(0)};
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f, 100);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.uops, 100u);
}

TEST(Interp, WildIndirectTargetIsSkipped)
{
    Program prog;
    FuncId f = prog.addFunction("main", true);
    prog.func(f).body = {
        movImm(1, 0x7fffffff), // not a function id
        indirectCall(1),
        movImm(2, 1),
        ret(),
    };
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(f);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(in.regValue(2), 1u);
}

TEST(Interp, RunningOffTheBodyReturnsWithoutAUop)
{
    // A body that ends without a ret — by falling through its last op
    // or by a jump past its end — returns to its caller; the missing
    // ret is not charged as a uop.
    Program prog;
    FuncId fall = prog.addFunction("fall", true);
    FuncId leap = prog.addFunction("leap", true);
    FuncId top = prog.addFunction("top", true);
    prog.func(fall).body = {movImm(1, 5)};
    prog.func(leap).body = {jump(7), movImm(3, 1)};
    prog.func(top).body = {call(fall), call(leap), movImm(2, 9)};
    prog.layout();
    Memory mem;
    Interpreter in(prog, mem);
    auto r = in.run(top);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.uops, 5u); // call, movImm, call, jump, movImm
    EXPECT_EQ(in.regValue(1), 5u);
    EXPECT_EQ(in.regValue(2), 9u);
    EXPECT_EQ(in.regValue(3), 0u);
}

/**
 * Unused (kNoReg) operand slots read as 0 on every executor: a store
 * of src2, a branch on src1 and an indirect call through src1 (which
 * therefore calls function 0). The interpreter, the detailed pipeline
 * and sampled pipelines whose functional skip or warm phase retires
 * the three ops agree on registers, memory and retired uops. The
 * padding spans several I-cache lines, so the first detailed window
 * closes at a line-miss drain and the rest retires functionally.
 */
TEST(Interp, UnusedOperandSlotsReadZeroOnEveryExecutor)
{
    Program prog;
    FuncId zero = prog.addFunction("zero", true);
    FuncId f = prog.addFunction("main", true);
    prog.func(zero).body = {movImm(5, 55), ret()};
    auto &body = prog.func(f).body;
    for (unsigned i = 0; i < 48; ++i)
        body.push_back(addImm(6, 6, 1));
    body.push_back(movImm(1, 0xc000));
    body.push_back(movImm(2, 7));
    body.push_back(store(1, 0, kNoReg)); // stores 0
    body.push_back(branchImm(Cond::Eq, kNoReg, 0,
                             static_cast<std::uint32_t>(body.size() + 2)));
    body.push_back(movImm(3, 1)); // skipped: 0 == 0
    body.push_back(indirectCall(kNoReg)); // calls function 0
    body.push_back(movImm(4, 9));
    body.push_back(ret());
    prog.layout();

    Memory ref_mem;
    ref_mem.write(0xc000, 99);
    Interpreter ref(prog, ref_mem);
    auto ref_res = ref.run(f);
    ASSERT_TRUE(ref_res.completed);
    EXPECT_EQ(ref_mem.read(0xc000), 0u);
    EXPECT_EQ(ref.regValue(3), 0u);
    EXPECT_EQ(ref.regValue(4), 9u);
    EXPECT_EQ(ref.regValue(5), 55u);
    EXPECT_EQ(ref_res.uops, 48u + 9u);

    PipelineParams detailed;
    PipelineParams skip;
    skip.sampling.enabled = true;
    skip.sampling.windowInsts = 1;
    skip.sampling.warmingInsts = 1;
    skip.sampling.periodInsts = 1'000'000;
    PipelineParams warm = skip;
    warm.sampling.warmingInsts = 1000;
    warm.sampling.periodInsts = 1001;
    for (const PipelineParams *pp : {&detailed, &skip, &warm}) {
        Memory mem;
        mem.write(0xc000, 99);
        Pipeline cpu(prog, mem, *pp);
        auto res = cpu.run(f);
        EXPECT_EQ(res.instructions, ref_res.uops);
        for (unsigned r = 1; r <= 6; ++r)
            EXPECT_EQ(cpu.regValue(r), ref.regValue(r)) << "reg " << r;
        EXPECT_EQ(mem.read(0xc000), 0u);
        ASSERT_EQ(cpu.sampledMode(), pp->sampling.enabled);
        if (cpu.sampledMode()) {
            EXPECT_LT(cpu.sampler().sampledInsts(), 48u);
        }
    }
}
