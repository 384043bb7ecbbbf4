#include <gtest/gtest.h>

#include "core/isv_builders.hh"
#include "kernel/interp.hh"
#include "kernel/kstate.hh"
#include "kernel/syscall_exec.hh"
#include "workloads/driver.hh"
#include "workloads/profiles.hh"

using namespace perspective;
using namespace perspective::core;
using namespace perspective::kernel;
using perspective::sim::FuncId;

namespace
{

/** One shared, laid-out stack for all builder tests. */
struct Stack
{
    sim::Memory mem;
    KernelImage img{mem, 42};
    workloads::DriverSet drivers{img};
    Stack() { img.program().layout(); }
};

Stack &
stack()
{
    static Stack s;
    return s;
}

} // namespace

TEST(StaticIsv, BinaryAnalysisRecoversSyscallSet)
{
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    // A "binary" using only the read and getpid drivers.
    std::vector<FuncId> binary = {
        s.drivers.driverFor(Sys::Read),
        s.drivers.driverFor(Sys::Getpid),
    };
    auto sys = b.syscallsOfBinary(binary);
    EXPECT_EQ(sys.size(), 2u);
    EXPECT_TRUE(sys.count(Sys::Read));
    EXPECT_TRUE(sys.count(Sys::Getpid));
}

TEST(StaticIsv, ClosureIncludesTransitiveCallees)
{
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    FuncId entry = s.img.entryOf(Sys::Getpid);
    auto order = b.closure({entry});
    std::set<FuncId> cl(order.begin(), order.end());
    EXPECT_EQ(cl.size(), order.size()); // each function listed once
    EXPECT_TRUE(cl.count(entry));
    // Direct callees and their callees are in.
    for (FuncId c : s.img.info(entry).callees) {
        EXPECT_TRUE(cl.count(c));
        for (FuncId cc : s.img.info(c).callees)
            EXPECT_TRUE(cl.count(cc));
    }
}

TEST(StaticIsv, IndirectTargetsExcluded)
{
    // The defining limitation of static analysis (Section 5.3): the
    // fs impl reachable only through the fops pointer is NOT in the
    // static view, even for an app that uses read().
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    IsvView v = b.build({Sys::Read});
    auto [disp, idx] = s.img.vfsReadDispatch();
    (void)idx;
    EXPECT_TRUE(v.containsFunction(disp));
    FuncId target = s.img.info(disp).indirectTargets[0];
    EXPECT_FALSE(v.containsFunction(target));
}

TEST(StaticIsv, ViewGrowsWithSyscallSet)
{
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    IsvView small = b.build({Sys::Getpid});
    IsvView large = b.build({Sys::Getpid, Sys::Read, Sys::Send,
                             Sys::Mmap, Sys::Poll});
    EXPECT_GT(large.numFunctions(), small.numFunctions());
    EXPECT_LT(large.numFunctions(),
              s.img.numKernelFunctions() / 4);
}

TEST(DynamicIsv, TracedRunIncludesIndirectTargets)
{
    auto &s = stack();
    KernelState ks(s.mem);
    Pid pid = ks.createProcess(ks.createCgroup("t"));
    SyscallExecutor exec(ks, s.img);

    DynamicIsvBuilder b(s.img);
    SyscallInvocation inv{Sys::Read, 0, 8, 0};
    auto prep = exec.prepare(pid, inv);
    Interpreter in(s.img.program(), s.mem);
    for (auto [r, v] : prep.regs)
        in.setReg(r, v);
    in.run(s.img.entryOf(Sys::Read), 500'000,
           [&](FuncId f) { b.observe(f); });
    exec.finish(pid, inv);

    IsvView v = b.build();
    auto [disp, idx] = s.img.vfsReadDispatch();
    (void)idx;
    FuncId target = s.img.info(disp).indirectTargets[0];
    EXPECT_TRUE(v.containsFunction(target))
        << "dynamic tracing must capture indirect-call targets";
}

TEST(DynamicIsv, DynamicSmallerThanStatic)
{
    auto &s = stack();
    KernelState ks(s.mem);
    Pid pid = ks.createProcess(ks.createCgroup("t"));
    SyscallExecutor exec(ks, s.img);

    DynamicIsvBuilder db(s.img);
    for (Sys sys : {Sys::Read, Sys::Getpid, Sys::Poll}) {
        SyscallInvocation inv{sys, 0, 8, 0};
        auto prep = exec.prepare(pid, inv);
        Interpreter in(s.img.program(), s.mem);
        for (auto [r, v] : prep.regs)
            in.setReg(r, v);
        in.run(s.img.entryOf(sys), 500'000,
               [&](FuncId f) { db.observe(f); });
        exec.finish(pid, inv);
    }
    IsvView dynamic = db.build();
    StaticIsvBuilder sb(s.img);
    IsvView stat = sb.build({Sys::Read, Sys::Getpid, Sys::Poll});
    EXPECT_LT(dynamic.numFunctions(), stat.numFunctions());
}

/**
 * The function-entry trace dynamic ISVs are built from, pinned for
 * fixed read and poll invocations on a freshly booted stack: its
 * length, its FNV-1a hash (over each FuncId's four bytes, low byte
 * first) and the retired uops. Any drift in the interpreter's
 * committed-path semantics moves these.
 */
TEST(DynamicIsv, FunctionEntryTraceIsPinned)
{
    Stack fresh;
    KernelState ks(fresh.mem);
    Pid pid = ks.createProcess(ks.createCgroup("t"));
    SyscallExecutor exec(ks, fresh.img);

    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::size_t entries = 0;
    std::uint64_t uops = 0;
    for (Sys sys : {Sys::Read, Sys::Poll}) {
        SyscallInvocation inv{sys, 0, 8, 0};
        auto prep = exec.prepare(pid, inv);
        Interpreter in(fresh.img.program(), fresh.mem);
        for (auto [r, v] : prep.regs)
            in.setReg(r, v);
        auto res = in.run(fresh.img.entryOf(sys), 500'000, [&](FuncId f) {
            ++entries;
            for (unsigned b = 0; b < 4; ++b)
                hash = (hash ^ ((f >> (8 * b)) & 0xff)) * 0x100000001b3ull;
        });
        EXPECT_TRUE(res.completed);
        uops += res.uops;
        exec.finish(pid, inv);
    }
    EXPECT_EQ(entries, 121u);
    EXPECT_EQ(hash, 0x07ee690004d54158ull);
    EXPECT_EQ(uops, 1241u);
}

TEST(Audit, ApplyAuditExcludesVulnerable)
{
    auto &s = stack();
    StaticIsvBuilder b(s.img);
    IsvView v = b.build({Sys::Ioctl});
    FuncId gadget = s.img.pocDriverGadget();
    // The ioctl driver gadget is reachable only via indirect dispatch
    // so it is not in the *static* view; use a function that is.
    FuncId entry = s.img.entryOf(Sys::Ioctl);
    ASSERT_TRUE(v.containsFunction(entry));
    applyAudit(v, {entry, gadget});
    EXPECT_FALSE(v.containsFunction(entry));
    EXPECT_FALSE(v.containsFunction(gadget));
}

namespace
{

/** The bit-by-bit form of IsvView's per-function fill: one bit per
 * op, skipping any op outside the kernel text span. */
void
referenceFill(const sim::Program &prog, FuncId f, bool value,
              std::vector<bool> &bits)
{
    const sim::Function &fn = prog.func(f);
    for (std::uint32_t i = 0; i < fn.body.size(); ++i) {
        std::size_t bit = static_cast<std::size_t>(
            (fn.instAddr(i) - sim::kKernelTextBase) / sim::kInstBytes);
        if (bit < bits.size())
            bits[bit] = value;
    }
}

/** Compare @p v against @p ref over text bits [lo, hi). */
::testing::AssertionResult
sameBits(const IsvView &v, const std::vector<bool> &ref, std::size_t lo,
         std::size_t hi)
{
    hi = std::min(hi, ref.size());
    for (std::size_t b = lo; b < hi; ++b) {
        sim::Addr pc = sim::kKernelTextBase + b * sim::kInstBytes;
        if (v.contains(pc) != ref[b])
            return ::testing::AssertionFailure() << "bit " << b;
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(IsvFill, WordRangeFillMatchesBitByBitOnBootedImage)
{
    // Every function of a booted image, included into an empty view
    // and excluded from a full one, against the bit-by-bit form; the
    // whole text is compared after the cumulative passes, so a mask
    // that spills past a function's range shows.
    const sim::Program &prog = stack().img.program();
    const std::size_t n = static_cast<std::size_t>(
        (prog.kernelTextEnd() - sim::kKernelTextBase) / sim::kInstBytes);
    auto window = [&prog](FuncId f) {
        const sim::Function &fn = prog.func(f);
        std::size_t lo = fn.base < sim::kKernelTextBase
                             ? 0
                             : (fn.base - sim::kKernelTextBase) /
                                   sim::kInstBytes;
        return std::pair<std::size_t, std::size_t>(
            lo > 64 ? lo - 64 : 0, lo + fn.body.size() + 64);
    };

    IsvView empty(prog), full(prog);
    std::vector<bool> none(n, false), all(n, false);
    for (FuncId f = 0; f < prog.numFunctions(); ++f) {
        full.includeFunction(f);
        referenceFill(prog, f, true, all);
    }
    ASSERT_TRUE(sameBits(full, all, 0, n));

    for (FuncId f = 0; f < prog.numFunctions(); ++f) {
        SCOPED_TRACE(prog.func(f).name);
        auto [lo, hi] = window(f);
        std::vector<bool> one = none;
        referenceFill(prog, f, true, one);
        empty.includeFunction(f);
        EXPECT_TRUE(sameBits(empty, one, lo, hi));
        empty.excludeFunction(f);
        EXPECT_TRUE(sameBits(empty, none, lo, hi));

        std::vector<bool> holed = all;
        referenceFill(prog, f, false, holed);
        full.excludeFunction(f);
        EXPECT_TRUE(sameBits(full, holed, lo, hi));
        full.includeFunction(f);
    }
    EXPECT_TRUE(sameBits(empty, none, 0, n));
    EXPECT_TRUE(sameBits(full, all, 0, n));

    for (FuncId f = 0; f < prog.numFunctions(); f += 2) {
        full.excludeFunction(f);
        referenceFill(prog, f, false, all);
    }
    EXPECT_TRUE(sameBits(full, all, 0, n));
}
