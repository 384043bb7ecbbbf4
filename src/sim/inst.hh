/**
 * @file
 * The micro-op IR executed by the out-of-order pipeline.
 *
 * Kernel functions, workload drivers, and attack gadgets are all
 * expressed as sequences of MicroOps. The IR is deliberately small but
 * carries real data flow (register values, memory addresses) so that
 * transient-execution attacks, taint tracking (STT, the gadget
 * scanner), and Perspective's per-instruction ISV bits all operate on
 * the same mechanistic substrate.
 */

#ifndef PERSPECTIVE_SIM_INST_HH
#define PERSPECTIVE_SIM_INST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "types.hh"

namespace perspective::sim
{

/** Operation classes understood by the pipeline. */
enum class Op : std::uint8_t
{
    Nop,          ///< No effect; occupies a slot.
    IntAlu,       ///< dst = src1 (op) src2/imm; 1-cycle latency.
    IntMul,       ///< dst = src1 * src2/imm; 3-cycle latency.
    Load,         ///< dst = mem[src1 + imm]; transmitter instruction.
    Store,        ///< mem[src1 + imm] = src2; performed at commit.
    Branch,       ///< Conditional relative branch inside the function.
    Jump,         ///< Unconditional relative branch inside the function.
    Call,         ///< Direct call to another function.
    IndirectCall, ///< Call through a register holding a FuncId (BTB).
    Return,       ///< Return to the caller (RSB-predicted).
    Fence,        ///< Serializing; younger ops wait until it commits.
};

/** ALU sub-operations for Op::IntAlu. */
enum class AluOp : std::uint8_t
{
    Add,  ///< dst = src1 + src2(+imm)
    Sub,  ///< dst = src1 - src2(-imm)
    And,  ///< dst = src1 & imm
    Shl,  ///< dst = src1 << imm
    Shr,  ///< dst = src1 >> imm
    MovI, ///< dst = imm
    Mov,  ///< dst = src1
};

/** Branch conditions for Op::Branch (comparing src1 to src2/imm). */
enum class Cond : std::uint8_t
{
    Lt, ///< taken if src1 < operand (unsigned)
    Ge, ///< taken if src1 >= operand (unsigned)
    Eq, ///< taken if src1 == operand
    Ne, ///< taken if src1 != operand
};

/**
 * A single micro-op. Operands read architectural registers by id;
 * kNoReg marks an unused operand slot. When src2 == kNoReg, ALU and
 * branch operations use @c imm as the second operand; loads and stores
 * always add @c imm to the src1 base (src1 == kNoReg means an absolute
 * address equal to imm).
 */
struct MicroOp
{
    Op op = Op::Nop;
    AluOp alu = AluOp::Add;
    Cond cond = Cond::Lt;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    std::int64_t imm = 0;

    /** Branch/Jump target micro-op index within the same function. */
    std::uint32_t target = 0;

    /** Direct call target. */
    FuncId callee = kNoFunc;

    /** True for control-flow ops resolved by a predictor. */
    bool
    isControl() const
    {
        return op == Op::Branch || op == Op::IndirectCall ||
               op == Op::Return;
    }

    /** Render a short human-readable mnemonic (for tests and tracing). */
    std::string toString() const;
};

/**
 * Evaluate an ALU operation. @p a is the src1 value; @p b is the src2
 * value when the op has one (callers pass imm otherwise); @p imm is
 * the immediate displacement.
 */
constexpr std::uint64_t
evalAluOp(const MicroOp &op, std::uint64_t a, std::uint64_t b)
{
    switch (op.alu) {
      case AluOp::Add:
        return a + b + (op.src2 != kNoReg
                            ? static_cast<std::uint64_t>(op.imm)
                            : 0);
      case AluOp::Sub: return a - b;
      case AluOp::And: return a & static_cast<std::uint64_t>(op.imm);
      case AluOp::Shl: return a << (op.imm & 63);
      case AluOp::Shr: return a >> (op.imm & 63);
      case AluOp::MovI: return static_cast<std::uint64_t>(op.imm);
      case AluOp::Mov: return a;
    }
    return 0;
}

/** Evaluate a branch condition on operand values. */
constexpr bool
evalCondOp(Cond c, std::uint64_t a, std::uint64_t b)
{
    switch (c) {
      case Cond::Lt: return a < b;
      case Cond::Ge: return a >= b;
      case Cond::Eq: return a == b;
      case Cond::Ne: return a != b;
    }
    return false;
}

/** @name Builders
 * Convenience constructors used throughout the kernel image, the
 * workload drivers, and the attack gadgets.
 * @{
 */
MicroOp movImm(RegId dst, std::int64_t imm);
MicroOp add(RegId dst, RegId src1, RegId src2);
MicroOp addImm(RegId dst, RegId src1, std::int64_t imm);
MicroOp andImm(RegId dst, RegId src1, std::int64_t imm);
MicroOp shlImm(RegId dst, RegId src1, std::int64_t imm);
MicroOp mul(RegId dst, RegId src1, RegId src2);
MicroOp load(RegId dst, RegId base, std::int64_t off);
MicroOp loadAbs(RegId dst, Addr addr);
MicroOp store(RegId base, std::int64_t off, RegId value);
MicroOp branch(Cond c, RegId src1, RegId src2, std::uint32_t target);
MicroOp branchImm(Cond c, RegId src1, std::int64_t imm,
                  std::uint32_t target);
MicroOp jump(std::uint32_t target);
MicroOp call(FuncId callee);
MicroOp indirectCall(RegId targetReg);
MicroOp ret();
MicroOp fence();
MicroOp nop();
/** @} */

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_INST_HH
