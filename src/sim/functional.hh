/**
 * @file
 * The architectural stepping core: the committed-path semantics of
 * the micro-op IR, with no timing and no speculation. Both functional
 * executors step through runFunctional():
 *
 *  - kernel::Interpreter, the ftrace-style tracer behind dynamic ISVs
 *    (Section 5.3) and the gadget scanner's fuzzing loop;
 *  - the pipeline's functional skip and warm sampling phases
 *    (sim::Pipeline::functionalAdvance, DESIGN §5.8).
 *
 * What a caller observes (function entries, cache and predictor
 * warming) and where it keeps its call frames live in a hook set
 * passed as a template parameter, so a hook that does nothing
 * compiles to nothing.
 */

#ifndef PERSPECTIVE_SIM_FUNCTIONAL_HH
#define PERSPECTIVE_SIM_FUNCTIONAL_HH

#include <array>
#include <cstdint>

#include "memory.hh"
#include "program.hh"
#include "types.hh"

namespace perspective::sim
{

/** Architectural register file. */
using RegFile = std::array<std::uint64_t, kNumRegs>;

struct FunctionalResult
{
    std::uint64_t uops = 0;       ///< micro-ops retired
    std::uint64_t kernelUops = 0; ///< of those, in kernel functions
    bool returned = false;        ///< the outermost frame returned
};

/**
 * The no-op hook set. A hook set derives from it and hides the events
 * it observes. It must add the two frame hooks, which have no default
 * because every caller keeps its own call stack:
 *
 *  - `void call(const Function &caller, std::uint32_t idx,
 *    FuncId callee)`: push a frame returning to (caller, idx + 1);
 *    @p callee is entered next;
 *  - `bool ret(FuncId &func, std::uint32_t &idx)`: pop the youngest
 *    frame into (func, idx); false when no frame is left.
 */
struct FunctionalHooks
{
    /** Op @p idx of @p fn is about to execute. */
    void fetch(const Function &, std::uint32_t) {}
    /** Op @p idx of @p fn loads from @p ea. */
    void load(const Function &, std::uint32_t, Addr) {}
    /** A store to @p ea; returning false discards it. */
    bool store(Addr) { return true; }
    /** Branch @p idx of @p fn resolved @p taken. */
    void branch(const Function &, std::uint32_t, bool) {}
    /** Indirect call @p idx of @p fn goes to the valid @p target. */
    void indirectCall(const Function &, std::uint32_t, FuncId) {}
};

/**
 * Execute from (@p funcAt, @p idxAt) until @p budget micro-ops have
 * retired or the outermost frame returns. The position is left at
 * the next op to execute or, once the outermost frame has returned,
 * where it returned from. An unused (kNoReg) source reads as 0, or as the op's imm where the
 * MicroOp contract says so; a kNoReg destination discards the value.
 * A wild indirect call is an architected no-op (validCallTarget).
 * Running off the end of a body is a defensive return that charges
 * no uop. The budget is checked before every op.
 */
template <class Hooks>
FunctionalResult
runFunctional(const Program &prog, Memory &mem, RegFile &regs,
              FuncId &funcAt, std::uint32_t &idxAt, std::uint64_t budget,
              Hooks &hooks)
{
    // Step on local copies of the position and the body: the caller's
    // may live where an opaque store or hook call could alias them.
    FuncId func = funcAt;
    std::uint32_t idx = idxAt;
    FunctionalResult res;
    auto stop = [&](bool returned) {
        res.returned = returned;
        funcAt = func;
        idxAt = idx;
        return res;
    };
    auto src = [&regs](RegId r) -> std::uint64_t {
        return r != kNoReg ? regs[r] : 0;
    };
    auto operand2 = [&regs](const MicroOp &op) -> std::uint64_t {
        return op.src2 != kNoReg ? regs[op.src2]
                                 : static_cast<std::uint64_t>(op.imm);
    };
    for (;;) {
        const Function &fn = prog.func(func);
        const MicroOp *const body = fn.body.data();
        const std::size_t size = fn.body.size();
        const std::uint64_t inKernel = fn.kernel;
        for (bool sameFunc = true; sameFunc;) {
            if (res.uops >= budget)
                return stop(false);
            if (idx >= size) {
                // Ran off the end of the body: a defensive return.
                if (!hooks.ret(func, idx))
                    return stop(true);
                break;
            }
            const MicroOp &op = body[idx];
            hooks.fetch(fn, idx);
            ++res.uops;
            res.kernelUops += inKernel;
            switch (op.op) {
              case Op::Nop:
              case Op::Fence:
                // Fence only orders a speculating machine.
                ++idx;
                break;
              case Op::IntAlu:
              case Op::IntMul:
                // IntMul's value is whatever its AluOp says; only the
                // pipeline charges multiply latency.
                if (op.dst != kNoReg)
                    regs[op.dst] =
                        evalAluOp(op, src(op.src1), operand2(op));
                ++idx;
                break;
              case Op::Load: {
                Addr ea =
                    src(op.src1) + static_cast<std::uint64_t>(op.imm);
                hooks.load(fn, idx, ea);
                if (op.dst != kNoReg)
                    regs[op.dst] = mem.read(ea);
                ++idx;
                break;
              }
              case Op::Store: {
                Addr ea =
                    src(op.src1) + static_cast<std::uint64_t>(op.imm);
                if (hooks.store(ea))
                    mem.write(ea, src(op.src2));
                ++idx;
                break;
              }
              case Op::Branch: {
                bool taken =
                    evalCondOp(op.cond, src(op.src1), operand2(op));
                hooks.branch(fn, idx, taken);
                idx = taken ? op.target : idx + 1;
                break;
              }
              case Op::Jump:
                idx = op.target;
                break;
              case Op::Call:
                hooks.call(fn, idx, op.callee);
                func = op.callee;
                idx = 0;
                sameFunc = false;
                break;
              case Op::IndirectCall: {
                std::uint64_t raw = src(op.src1);
                if (!validCallTarget(prog, raw)) {
                    ++idx;
                    break;
                }
                hooks.indirectCall(fn, idx, static_cast<FuncId>(raw));
                hooks.call(fn, idx, static_cast<FuncId>(raw));
                func = static_cast<FuncId>(raw);
                idx = 0;
                sameFunc = false;
                break;
              }
              case Op::Return:
                if (!hooks.ret(func, idx))
                    return stop(true);
                sameFunc = false;
                break;
            }
        }
    }
}

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_FUNCTIONAL_HH
