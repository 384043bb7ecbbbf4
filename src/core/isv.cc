#include "isv.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace perspective::core
{

using namespace sim;

IsvView::IsvView(const Program &prog)
    : prog_(prog), textBase_(kKernelTextBase)
{
    assert(prog.kernelTextEnd() >= textBase_);
    numInsts_ = static_cast<std::size_t>(
        (prog.kernelTextEnd() - textBase_) / kInstBytes);
    bits_.assign((numInsts_ + 63) / 64, 0);
    funcBits_.assign((prog.numFunctions() + 63) / 64, 0);
}

bool
IsvView::funcBit(FuncId f) const
{
    std::size_t w = static_cast<std::size_t>(f) / 64;
    if (w >= funcBits_.size())
        return false;
    return (funcBits_[w] >> (f % 64)) & 1;
}

void
IsvView::setFuncBit(FuncId f, bool value)
{
    std::size_t w = static_cast<std::size_t>(f) / 64;
    if (w >= funcBits_.size())
        funcBits_.resize(w + 1, 0);
    if (value)
        funcBits_[w] |= 1ull << (f % 64);
    else
        funcBits_[w] &= ~(1ull << (f % 64));
}

std::size_t
IsvView::bitIndex(Addr pc) const
{
    return static_cast<std::size_t>((pc - textBase_) / kInstBytes);
}

void
IsvView::setFunctionBits(FuncId f, bool value)
{
    // A function's ops are contiguous in text, so its bits are the
    // range [lo, hi), clamped to the kernel text span; fill it a word
    // at a time. Text below the kernel base (user code) has no bits.
    const Function &fn = prog_.func(f);
    if (fn.base < textBase_)
        return;
    const std::size_t lo = bitIndex(fn.base);
    const std::size_t hi = std::min(lo + fn.body.size(), numInsts_);
    for (std::size_t b = lo; b < hi;) {
        const std::size_t end = std::min(hi, (b / 64 + 1) * 64);
        const std::size_t n = end - b;
        const std::uint64_t mask =
            (n == 64 ? ~0ull : (1ull << n) - 1) << (b % 64);
        if (value)
            bits_[b / 64] |= mask;
        else
            bits_[b / 64] &= ~mask;
        b = end;
    }
}

void
IsvView::includeFunction(FuncId f)
{
    if (!funcBit(f)) {
        setFuncBit(f, true);
        ++numFuncs_;
        setFunctionBits(f, true);
        ++epoch_;
    }
}

void
IsvView::excludeFunction(FuncId f)
{
    if (funcBit(f)) {
        setFuncBit(f, false);
        --numFuncs_;
        setFunctionBits(f, false);
        ++epoch_;
    }
}

bool
IsvView::contains(Addr pc) const
{
    if (pc < textBase_)
        return false;
    std::size_t bit = bitIndex(pc);
    if (bit >= numInsts_)
        return false;
    return (bits_[bit / 64] >> (bit % 64)) & 1;
}

bool
IsvView::containsFunction(FuncId f) const
{
    return funcBit(f);
}

void
IsvView::intersectWith(const IsvView &other)
{
    for (std::size_t w = 0; w < funcBits_.size(); ++w) {
        std::uint64_t theirs =
            w < other.funcBits_.size() ? other.funcBits_[w] : 0;
        std::uint64_t drop = funcBits_[w] & ~theirs;
        while (drop) {
            unsigned b = std::countr_zero(drop);
            drop &= drop - 1;
            excludeFunction(static_cast<FuncId>(w * 64 + b));
        }
    }
}

void
IsvView::unionWith(const IsvView &other)
{
    for (std::size_t w = 0; w < other.funcBits_.size(); ++w) {
        std::uint64_t add = other.funcBits_[w];
        while (add) {
            unsigned b = std::countr_zero(add);
            add &= add - 1;
            includeFunction(static_cast<FuncId>(w * 64 + b));
        }
    }
}

std::vector<FuncId>
IsvView::functions() const
{
    std::vector<FuncId> out;
    out.reserve(numFuncs_);
    for (std::size_t w = 0; w < funcBits_.size(); ++w) {
        std::uint64_t word = funcBits_[w];
        while (word) {
            unsigned b = std::countr_zero(word);
            word &= word - 1;
            out.push_back(static_cast<FuncId>(w * 64 + b));
        }
    }
    return out;
}

std::array<std::uint64_t, 2>
IsvView::regionBits(Addr pc, Addr region_bytes) const
{
    Addr base = pc & ~(region_bytes - 1);
    std::array<std::uint64_t, 2> out{};
    unsigned n = static_cast<unsigned>(region_bytes / kInstBytes);
    for (unsigned i = 0; i < n && i < 128; ++i) {
        if (contains(base + Addr{i} * kInstBytes))
            out[i / 64] |= 1ull << (i % 64);
    }
    return out;
}

} // namespace perspective::core
