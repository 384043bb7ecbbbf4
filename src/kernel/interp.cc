#include "interp.hh"

#include <iterator>

namespace perspective::kernel
{

using namespace sim;

namespace
{

/**
 * Flat dispatch kind: Op with AluOp unfolded, so threaded dispatch
 * needs a single indexed jump and no secondary switch.
 */
enum OpKind : std::uint8_t
{
    kKindNop = 0,
    kKindAdd,
    kKindSub,
    kKindAnd,
    kKindShl,
    kKindShr,
    kKindMovI,
    kKindMov,
    kKindMul,
    kKindLoad,
    kKindStore,
    kKindBranch,
    kKindJump,
    kKindCall,
    kKindIndirectCall,
    kKindReturn,
    kKindFence,
    kNumOpKinds,
};

/** Flat kind of each Op, indexed by Op; IntAlu's entry is refined by
 * its AluOp (kindOf). */
constexpr std::uint8_t kKindOfOp[] = {
    kKindNop,   kKindAdd,    kKindMul,  kKindLoad,
    kKindStore, kKindBranch, kKindJump, kKindCall,
    kKindIndirectCall, kKindReturn, kKindFence,
};
static_assert(std::size(kKindOfOp) == static_cast<int>(Op::Fence) + 1,
              "one kind per Op");
static_assert(kKindMov - kKindAdd == static_cast<int>(AluOp::Mov) -
                                         static_cast<int>(AluOp::Add),
              "ALU kinds follow AluOp's order");

/** Map a micro-op to its flat dispatch kind: one table load, no
 * branch, computed at every dispatch. */
inline std::uint8_t
kindOf(const MicroOp &op)
{
    return static_cast<std::uint8_t>(
        kKindOfOp[static_cast<int>(op.op)] +
        (op.op == Op::IntAlu) * static_cast<int>(op.alu));
}

} // namespace

/*
 * Dispatch is threaded over the ops' flat kinds: the hot loop is
 * "execute handler, bump cursor, indexed jump" with no nested decode
 * switch. The cursor walks Function::body directly; one pointer
 * compare per op catches a run off the end of the body, which applies
 * the ran-off-the-end rule (a defensive return, no uop charged).
 * GCC/Clang get labels-as-values; other compilers fall back to a
 * switch over the same handlers.
 */

#if defined(__GNUC__) || defined(__clang__)
#define PERSPECTIVE_THREADED_DISPATCH 1
#endif

Interpreter::Result
Interpreter::run(FuncId entry, std::uint64_t max_uops,
                 const std::function<void(FuncId)> &on_func)
{
    stack_.clear();
    FuncId func = entry;
    std::uint32_t idx = 0;
    Result res;

    if (on_func)
        on_func(func);

    const MicroOp *body = nullptr; ///< current function's first op
    const MicroOp *end = nullptr;  ///< one past its last op
    const MicroOp *cur = nullptr;

    // Index of the op `cur` points at (terminator handlers only).
#define PERSPECTIVE_CUR_IDX() static_cast<std::uint32_t>(cur - body)

// Budget check precedes every dispatch, the end-of-body check
// included, exactly like the original per-op while loop; real
// handlers count their own uop.
#ifdef PERSPECTIVE_THREADED_DISPATCH
    static const void *const kJump[kNumOpKinds] = {
        &&h_nop,    &&h_add,  &&h_sub,    &&h_and,  &&h_shl,
        &&h_shr,    &&h_movi, &&h_mov,    &&h_mul,  &&h_load,
        &&h_store,  &&h_branch, &&h_jump, &&h_call, &&h_icall,
        &&h_return, &&h_fence,
    };
#define PERSPECTIVE_CASE(label, kind) label:
#define DISPATCH()                                                     \
    do {                                                               \
        if (res.uops >= max_uops) [[unlikely]]                         \
            return res;                                                \
        if (cur == end) [[unlikely]]                                   \
            goto h_end;                                                \
        goto *kJump[kindOf(*cur)];                                     \
    } while (0)
#else
#define PERSPECTIVE_CASE(label, kind) case kind:
#define DISPATCH() goto dispatch
#endif

next_func:
    {
        const Function &f = prog_.func(func);
        body = f.body.data();
        end = body + f.body.size();
    }
same_func:
    cur = idx < static_cast<std::size_t>(end - body) ? body + idx : end;
#ifdef PERSPECTIVE_THREADED_DISPATCH
    DISPATCH();
#else
dispatch:
    if (res.uops >= max_uops)
        return res;
    if (cur == end)
        goto h_end;
    switch (kindOf(*cur)) {
#endif

    PERSPECTIVE_CASE(h_nop, kKindNop)
    ++res.uops;
    ++cur;
    DISPATCH();

    PERSPECTIVE_CASE(h_add, kKindAdd) {
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
        regs_[op.dst] =
            op.src2 != kNoReg
                ? a + regs_[op.src2] + static_cast<std::uint64_t>(op.imm)
                : a + static_cast<std::uint64_t>(op.imm);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_sub, kKindSub) {
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
        std::uint64_t b = op.src2 != kNoReg
                              ? regs_[op.src2]
                              : static_cast<std::uint64_t>(op.imm);
        regs_[op.dst] = a - b;
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_and, kKindAnd) {
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
        regs_[op.dst] = a & static_cast<std::uint64_t>(op.imm);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_shl, kKindShl) {
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
        regs_[op.dst] = a << (op.imm & 63);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_shr, kKindShr) {
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
        regs_[op.dst] = a >> (op.imm & 63);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_movi, kKindMovI) {
        ++res.uops;
        regs_[cur->dst] = static_cast<std::uint64_t>(cur->imm);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_mov, kKindMov) {
        ++res.uops;
        const MicroOp &op = *cur;
        regs_[op.dst] = op.src1 != kNoReg ? regs_[op.src1] : 0;
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_mul, kKindMul) {
        // IntMul's value function is whatever its AluOp says (the
        // stock builder leaves AluOp::Add; only the pipeline charges
        // multiply latency), so defer to evalAluOp rather than
        // multiplying.
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = op.src1 != kNoReg ? regs_[op.src1] : 0;
        std::uint64_t b = op.src2 != kNoReg
                              ? regs_[op.src2]
                              : static_cast<std::uint64_t>(op.imm);
        regs_[op.dst] = evalAluOp(op, a, b);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_load, kKindLoad) {
        ++res.uops;
        const MicroOp &op = *cur;
        Addr ea = (op.src1 != kNoReg ? regs_[op.src1] : 0) +
                  static_cast<std::uint64_t>(op.imm);
        regs_[op.dst] = mem_.read(ea);
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_store, kKindStore) {
        ++res.uops;
        const MicroOp &op = *cur;
        if (!dryStores_) {
            Addr ea = (op.src1 != kNoReg ? regs_[op.src1] : 0) +
                      static_cast<std::uint64_t>(op.imm);
            mem_.write(ea, regs_[op.src2]);
        }
        ++cur;
        DISPATCH();
    }

    PERSPECTIVE_CASE(h_branch, kKindBranch) {
        ++res.uops;
        const MicroOp &op = *cur;
        std::uint64_t a = regs_[op.src1];
        std::uint64_t b = op.src2 != kNoReg
                              ? regs_[op.src2]
                              : static_cast<std::uint64_t>(op.imm);
        idx = evalCondOp(op.cond, a, b) ? op.target
                                        : PERSPECTIVE_CUR_IDX() + 1;
        goto same_func;
    }

    PERSPECTIVE_CASE(h_jump, kKindJump)
    ++res.uops;
    idx = cur->target;
    goto same_func;

    PERSPECTIVE_CASE(h_call, kKindCall)
    ++res.uops;
    stack_.push_back({func, PERSPECTIVE_CUR_IDX() + 1});
    func = cur->callee;
    idx = 0;
    if (on_func)
        on_func(func);
    goto next_func;

    PERSPECTIVE_CASE(h_icall, kKindIndirectCall) {
        ++res.uops;
        std::uint64_t raw = regs_[cur->src1];
        if (!validCallTarget(prog_, raw)) {
            // Wild pointer: architected no-op call, fall through.
            ++cur;
            DISPATCH();
        }
        stack_.push_back({func, PERSPECTIVE_CUR_IDX() + 1});
        func = static_cast<FuncId>(raw);
        idx = 0;
        if (on_func)
            on_func(func);
        goto next_func;
    }

    PERSPECTIVE_CASE(h_return, kKindReturn)
    ++res.uops;
    goto pop_frame;

    PERSPECTIVE_CASE(h_fence, kKindFence)
    ++res.uops;
    ++cur;
    DISPATCH();

#ifndef PERSPECTIVE_THREADED_DISPATCH
    }
#endif

h_end:
    // Ran off the end of the body: defensive return (no uop charged).
pop_frame:
    if (stack_.empty()) {
        res.completed = true;
        return res;
    }
    func = stack_.back().func;
    idx = stack_.back().idx;
    stack_.pop_back();
    goto next_func;

#undef DISPATCH
#undef PERSPECTIVE_CASE
#undef PERSPECTIVE_CUR_IDX
}

} // namespace perspective::kernel
