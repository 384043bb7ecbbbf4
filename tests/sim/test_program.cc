#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "sim/program.hh"

using namespace perspective::sim;

namespace
{

Program
twoFunctionProgram()
{
    Program p;
    FuncId k = p.addFunction("kfunc", true);
    FuncId u = p.addFunction("ufunc", false);
    p.func(k).body = {nop(), nop(), ret()};
    p.func(u).body = {nop(), ret()};
    p.layout();
    return p;
}

} // namespace

TEST(Program, LayoutSeparatesKernelAndUser)
{
    Program p = twoFunctionProgram();
    EXPECT_GE(p.func(0).base, kKernelTextBase);
    EXPECT_GE(p.func(1).base, kUserBase);
    EXPECT_LT(p.func(1).base, kKernelTextBase);
}

TEST(Program, ResolveRoundTrip)
{
    Program p = twoFunctionProgram();
    for (FuncId f = 0; f < 2; ++f) {
        for (std::uint32_t i = 0; i < p.func(f).body.size(); ++i) {
            auto [rf, ri] = p.resolve(p.func(f).instAddr(i));
            EXPECT_EQ(rf, f);
            EXPECT_EQ(ri, i);
        }
    }
}

TEST(Program, ResolveUnmappedReturnsNoFunc)
{
    Program p = twoFunctionProgram();
    auto [f, i] = p.resolve(kKernelTextBase - 64);
    EXPECT_EQ(f, kNoFunc);
    (void)i;
}

TEST(Program, TotalOps)
{
    Program p = twoFunctionProgram();
    EXPECT_EQ(p.totalOps(), 5u);
}

TEST(Program, KernelTextEndCoversAllKernelFunctions)
{
    Program p = twoFunctionProgram();
    const auto &k = p.func(0);
    EXPECT_GE(p.kernelTextEnd(),
              k.base + k.body.size() * kInstBytes);
}

TEST(Program, DisassembleListsEveryOp)
{
    Program p = twoFunctionProgram();
    std::string text = p.disassemble(0);
    EXPECT_NE(text.find("kfunc"), std::string::npos);
    EXPECT_NE(text.find("kernel"), std::string::npos);
    EXPECT_NE(text.find("0: nop"), std::string::npos);
    EXPECT_NE(text.find("2: ret"), std::string::npos);
}

namespace
{

/**
 * A seeded random program whose kernel and user functions interleave
 * in id order. About one body in eight is empty, one in ten spans
 * pages and the rest are short, so several share a page.
 */
Program
interleavedProgram(std::uint64_t seed, unsigned nfuncs)
{
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    auto rnd = [&state](std::uint64_t bound) {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return z % bound;
    };
    Program p;
    for (unsigned f = 0; f < nfuncs; ++f) {
        FuncId id = p.addFunction("f", rnd(5) < 3);
        std::uint64_t kind = rnd(40);
        std::uint64_t n = kind < 5    ? 0
                          : kind < 9  ? 1000 + rnd(2000)
                                      : 1 + rnd(64);
        p.func(id).body.assign(n, nop());
    }
    p.layout();
    return p;
}

/** resolve() by scanning every function. */
std::pair<FuncId, std::uint32_t>
bruteResolve(const Program &p, Addr va)
{
    for (FuncId f = 0; f < p.numFunctions(); ++f) {
        const Function &fn = p.func(f);
        if (va >= fn.base && va < fn.base + fn.body.size() * kInstBytes)
            return {f, static_cast<std::uint32_t>((va - fn.base) /
                                                  kInstBytes)};
    }
    return {kNoFunc, 0};
}

} // namespace

TEST(Program, ResolveMatchesScanOnInterleavedPrograms)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Program p = interleavedProgram(seed, 120);

        // Each region packs its functions back to back in id order.
        Addr kernel_next = kKernelTextBase, user_next = kUserBase;
        for (FuncId f = 0; f < p.numFunctions(); ++f) {
            const Function &fn = p.func(f);
            Addr &next = fn.kernel ? kernel_next : user_next;
            ASSERT_EQ(fn.base, next) << "seed " << seed << " f" << f;
            next += fn.body.size() * kInstBytes;
        }
        EXPECT_EQ(p.kernelTextEnd(), kernel_next);

        for (FuncId f = 0; f < p.numFunctions(); ++f) {
            for (std::uint32_t i = 0; i < p.func(f).body.size(); ++i) {
                Addr va = p.func(f).instAddr(i);
                ASSERT_EQ(p.resolve(va), bruteResolve(p, va))
                    << "seed " << seed << " va 0x" << std::hex << va;
            }
        }
        for (Addr va = kKernelTextBase; va < p.kernelTextEnd();
             va += kPageSize) {
            ASSERT_EQ(p.resolve(va), bruteResolve(p, va))
                << "seed " << seed << " page 0x" << std::hex << va;
        }
        for (Addr va : {kernel_next, user_next, kUserBase - kInstBytes})
            EXPECT_EQ(p.resolve(va).first, kNoFunc);
    }
}
