#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "kernel/image.hh"
#include "kernel/interp.hh"
#include "kernel/kstate.hh"
#include "kernel/process.hh"
#include "kernel/syscall_exec.hh"

using namespace perspective::kernel;
using perspective::sim::FuncId;
using perspective::sim::kNoFunc;

namespace
{

/** Shared, lazily-built image: generation is the expensive part. */
struct ImageFixture : ::testing::Test
{
    static perspective::sim::Memory &mem()
    {
        static perspective::sim::Memory m;
        return m;
    }
    static KernelImage &img()
    {
        static KernelImage i(mem(), 42);
        return i;
    }
};

} // namespace

TEST_F(ImageFixture, ReachesTargetScale)
{
    EXPECT_GE(img().numKernelFunctions(), 28000u);
    EXPECT_LT(img().numKernelFunctions(), 30000u);
}

TEST_F(ImageFixture, EverySyscallHasAnEntry)
{
    for (unsigned i = 0; i < kNumSyscalls; ++i) {
        FuncId e = img().entryOf(static_cast<Sys>(i));
        EXPECT_NE(e, kNoFunc);
        EXPECT_FALSE(img().program().func(e).body.empty());
    }
}

TEST_F(ImageFixture, GadgetCensusMatchesKasper)
{
    // 805 MDS + 509 Port + 219 Cache from the census, plus the
    // concrete PoC gadgets.
    unsigned n = img().totalGadgets();
    EXPECT_GE(n, 805u + 509u + 219u - 10);
    EXPECT_LE(n, 805u + 509u + 219u + 10);
}

TEST_F(ImageFixture, GadgetsMostlyHideInColdCode)
{
    unsigned cold = 0, total = 0;
    for (FuncId f : img().functionsWithGadgets()) {
        total += 1;
        if (img().classOf(f) == KernelImage::FuncClass::Cold)
            cold += 1;
    }
    EXPECT_GT(total, 1000u);
    EXPECT_GT(static_cast<double>(cold) / total, 0.6);
}

TEST_F(ImageFixture, BodiesEndInControlTransfer)
{
    // Every body must be fetch-safe: last op is ret or jump.
    for (std::size_t f = 0; f < img().numKernelFunctions(); ++f) {
        const auto &body = img().program().func(
            static_cast<FuncId>(f)).body;
        ASSERT_FALSE(body.empty());
        auto last = body.back().op;
        EXPECT_TRUE(last == perspective::sim::Op::Return ||
                    last == perspective::sim::Op::Jump)
            << img().program().func(static_cast<FuncId>(f)).name;
    }
}

TEST_F(ImageFixture, BranchTargetsInBounds)
{
    for (std::size_t f = 0; f < img().numKernelFunctions(); ++f) {
        const auto &body = img().program().func(
            static_cast<FuncId>(f)).body;
        for (const auto &op : body) {
            if (op.op == perspective::sim::Op::Branch ||
                op.op == perspective::sim::Op::Jump) {
                ASSERT_LT(op.target, body.size());
            }
        }
    }
}

TEST_F(ImageFixture, CalleesDerivedFromBodies)
{
    FuncId e = img().entryOf(Sys::Read);
    const auto &callees = img().info(e).callees;
    EXPECT_FALSE(callees.empty());
    for (FuncId c : callees)
        EXPECT_LT(c, img().numKernelFunctions());
}

TEST_F(ImageFixture, DispatchTargetsAreIndirectOnly)
{
    // The runtime target of vfs_dispatch_read must have no direct
    // caller anywhere (that is what static analysis cannot see).
    auto [disp, idx] = img().vfsReadDispatch();
    (void)idx;
    ASSERT_FALSE(img().info(disp).indirectTargets.empty());
    FuncId target = img().info(disp).indirectTargets[0];
    for (std::size_t f = 0; f < img().numKernelFunctions(); ++f) {
        for (FuncId c : img().info(static_cast<FuncId>(f)).callees)
            ASSERT_NE(c, target);
    }
}

TEST_F(ImageFixture, DeterministicAcrossBuilds)
{
    perspective::sim::Memory mem2;
    KernelImage img2(mem2, 42);
    ASSERT_EQ(img2.numKernelFunctions(), img().numKernelFunctions());
    // Spot-check some bodies.
    for (FuncId f : {FuncId{0}, FuncId{100}, FuncId{20000}}) {
        const auto &a = img().program().func(f).body;
        const auto &b = img2.program().func(f).body;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(static_cast<int>(a[i].op),
                      static_cast<int>(b[i].op));
            EXPECT_EQ(a[i].imm, b[i].imm);
        }
    }
}

namespace
{

/** FNV-1a 64 over values fed low byte first. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v, unsigned bytes = 8)
    {
        for (unsigned b = 0; b < bytes; ++b)
            h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ull;
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (char c : s)
            mix(static_cast<unsigned char>(c), 1);
    }

    void
    mix(const std::vector<FuncId> &v)
    {
        mix(v.size());
        for (FuncId f : v)
            mix(f, 4);
    }
};

/**
 * Digest of everything a generated, laid-out image determines: every
 * function's name, kernel flag, base and micro-ops; every kernel
 * function's KFuncInfo and class; the gadget list; and the boot
 * globals and ops-table words the generator writes to memory.
 */
std::uint64_t
imageDigest(std::uint64_t seed)
{
    perspective::sim::Memory mem;
    KernelImage img(mem, seed);
    img.program().layout();
    const auto &prog = img.program();

    Fnv d;
    d.mix(prog.numFunctions());
    for (FuncId f = 0; f < prog.numFunctions(); ++f) {
        const auto &fn = prog.func(f);
        d.mix(fn.name);
        d.mix(fn.kernel, 1);
        d.mix(fn.base);
        d.mix(fn.body.size());
        for (const auto &op : fn.body) {
            d.mix(static_cast<std::uint64_t>(op.op), 1);
            d.mix(static_cast<std::uint64_t>(op.alu), 1);
            d.mix(static_cast<std::uint64_t>(op.cond), 1);
            d.mix(op.dst, sizeof(op.dst));
            d.mix(op.src1, sizeof(op.src1));
            d.mix(op.src2, sizeof(op.src2));
            d.mix(static_cast<std::uint64_t>(op.imm));
            d.mix(op.target, 4);
            d.mix(op.callee, 4);
        }
    }
    for (FuncId f = 0; f < img.numKernelFunctions(); ++f) {
        const KFuncInfo &fi = img.info(f);
        d.mix(static_cast<std::uint64_t>(fi.subsys), 1);
        d.mix(fi.callees);
        d.mix(fi.indirectTargets);
        d.mix(fi.gadgets.size());
        for (GadgetKind g : fi.gadgets)
            d.mix(static_cast<std::uint64_t>(g), 1);
        d.mix(static_cast<std::uint64_t>(img.classOf(f)), 1);
    }
    d.mix(img.functionsWithGadgets());
    for (unsigned i = 0; i < 1024; ++i)
        d.mix(mem.read(bootGlobalVa(i)));
    for (unsigned t = 0; t < 4; ++t)
        for (unsigned slot = 0; slot < 6; ++slot)
            d.mix(mem.read(fopsSlotVa(t, slot)));
    for (unsigned p = 0; p < 3; ++p)
        for (unsigned slot = 0; slot < 5; ++slot)
            d.mix(mem.read(protoOpsSlotVa(p, slot)));
    return d.h;
}

} // namespace

/**
 * The generated image, pinned. DeterministicAcrossBuilds compares two
 * images from one binary, so it cannot see a generator change; these
 * constants can. Any change to what the generator emits, lays out or
 * writes moves them.
 */
TEST_F(ImageFixture, GeneratedImageMatchesPinnedDigest)
{
    EXPECT_EQ(imageDigest(42), 0xb149cc048c3c0991ull);
    EXPECT_EQ(imageDigest(7), 0xc7b39764041c0674ull);
}

TEST_F(ImageFixture, SyscallRunsToCompletionOnInterpreter)
{
    // Requires layout + a process context.
    static perspective::sim::Memory mem2;
    static KernelImage image2(mem2, 42);
    image2.program().layout();
    KernelState ks(mem2);
    CgroupId cg = ks.createCgroup("t");
    Pid pid = ks.createProcess(cg);
    SyscallExecutor exec(ks, image2);

    for (Sys s : {Sys::Getpid, Sys::Read, Sys::Poll, Sys::Mmap,
                  Sys::Fork, Sys::Open, Sys::Ioctl, Sys::Recv}) {
        SyscallInvocation inv{s, 1, 8, 2};
        auto prep = exec.prepare(pid, inv);
        Interpreter in(image2.program(), mem2);
        for (auto [r, v] : prep.regs)
            in.setReg(r, v);
        auto res = in.run(image2.entryOf(s), 200'000);
        EXPECT_TRUE(res.completed) << sysName(s);
        EXPECT_GT(res.uops, 50u) << sysName(s);
        exec.finish(pid, inv);
    }
}

TEST_F(ImageFixture, HotPathAvoidsErrorFunctions)
{
    // With r14 == 0 a benign getpid must never visit err_*
    // functions; some targeted fault-injection id must.
    static perspective::sim::Memory mem3;
    static KernelImage image3(mem3, 42);
    image3.program().layout();
    KernelState ks(mem3);
    Pid pid = ks.createProcess(ks.createCgroup("t"));
    SyscallExecutor exec(ks, image3);

    auto visits_err = [&](std::uint64_t fault) {
        SyscallInvocation inv{Sys::Getpid, 0, 0, 0};
        auto prep = exec.prepare(pid, inv);
        Interpreter in(image3.program(), mem3);
        for (auto [r, v] : prep.regs)
            in.setReg(r, v);
        in.setReg(reg::kFault, fault);
        bool saw_err = false;
        in.run(image3.entryOf(Sys::Getpid), 200'000,
               [&](FuncId f) {
                   if (image3.program().func(f).name.rfind("err_",
                                                           0) == 0)
                       saw_err = true;
               });
        exec.finish(pid, inv);
        return saw_err;
    };
    EXPECT_FALSE(visits_err(0));
    bool any = false;
    for (std::uint64_t id = 1; id <= 2048 && !any; ++id)
        any = visits_err(id);
    EXPECT_TRUE(any);
}
