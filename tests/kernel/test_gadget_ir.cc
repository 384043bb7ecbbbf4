/**
 * @file
 * Semantics of the planted gadget IR: benign executions must be
 * architecturally harmless and bounded, and the PoC gadget handles
 * must point at functions with the expected shape.
 */

#include <gtest/gtest.h>

#include "kernel/image.hh"
#include "kernel/interp.hh"
#include "kernel/kstate.hh"
#include "kernel/process.hh"
#include "kernel/syscall_exec.hh"

using namespace perspective::kernel;
namespace sim = perspective::sim;

namespace
{

struct GadgetFixture : ::testing::Test
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    std::unique_ptr<KernelState> ks;
    std::unique_ptr<SyscallExecutor> exec;
    Pid pid = 0;

    GadgetFixture()
    {
        img.program().layout();
        ks = std::make_unique<KernelState>(mem);
        pid = ks->createProcess(ks->createCgroup("t"));
        exec = std::make_unique<SyscallExecutor>(*ks, img);
    }
};

} // namespace

TEST_F(GadgetFixture, PocHandlesAreDistinctAndAnnotated)
{
    std::set<sim::FuncId> handles = {
        img.pocDriverGadget(), img.pocPtraceGadget(),
        img.pocBpfGadget(), img.pocHijackGadget()};
    EXPECT_EQ(handles.size(), 4u);
    for (sim::FuncId f : handles) {
        EXPECT_NE(f, sim::kNoFunc);
        EXPECT_FALSE(img.info(f).gadgets.empty());
    }
}

TEST_F(GadgetFixture, GuardBoundIsSixteen)
{
    EXPECT_EQ(mem.read(img.pocBoundGlobalVa()), 16u);
}

TEST_F(GadgetFixture, BenignGadgetExecutionStaysInBounds)
{
    // Architecturally executing the driver gadget with an in-bounds
    // index reads only the caller's own table region; interpreter
    // semantics terminate and return cleanly.
    SyscallInvocation inv{Sys::Ioctl, 5, 0, 0};
    auto prep = exec->prepare(pid, inv);
    Interpreter in(img.program(), mem);
    for (auto [r, v] : prep.regs)
        in.setReg(r, v);
    auto res = in.run(img.entryOf(Sys::Ioctl), 200'000);
    EXPECT_TRUE(res.completed);
    exec->finish(pid, inv);
}

TEST_F(GadgetFixture, OutOfBoundsIndexIsArchitecturallySkipped)
{
    // The guard branch must skip the gadget body for an index >= 16:
    // run the gadget function directly with a poisoned index and a
    // canary in the transmit register.
    Interpreter in(img.program(), mem);
    in.setReg(reg::kCtx, ks->task(pid).ctxVa);
    in.setReg(reg::kArg0, 1 << 20);
    in.setReg(30, 0x1234);
    in.run(img.pocDriverGadget(), 100'000);
    EXPECT_EQ(in.regValue(30), 0x1234u)
        << "transmit register must be untouched architecturally";
}

TEST_F(GadgetFixture, HijackGadgetLoadsCurrentTaskSecret)
{
    Addr secret = ks->task(pid).ctxVa + KernelImage::kSecretCtxOff;
    mem.write(secret, 0x42);
    Interpreter in(img.program(), mem);
    in.setReg(reg::kCtx, ks->task(pid).ctxVa);
    in.run(img.pocHijackGadget(), 10'000);
    EXPECT_EQ(in.regValue(24), 0x42u);
}

TEST_F(GadgetFixture, PathWalkRecursionIsArgBounded)
{
    Interpreter in(img.program(), mem);
    in.setReg(reg::kCtx, ks->task(pid).ctxVa);
    in.setReg(reg::kArg2, 20);
    auto res = in.run(img.pathWalkRecursive(), 100'000);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(in.regValue(reg::kArg2), 0u);
}
