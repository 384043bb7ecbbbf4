#include "inst.hh"

#include <sstream>

namespace perspective::sim
{

namespace
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Nop: return "nop";
      case Op::IntAlu: return "alu";
      case Op::IntMul: return "mul";
      case Op::Load: return "load";
      case Op::Store: return "store";
      case Op::Branch: return "br";
      case Op::Jump: return "jmp";
      case Op::Call: return "call";
      case Op::IndirectCall: return "icall";
      case Op::Return: return "ret";
      case Op::Fence: return "fence";
    }
    return "?";
}

} // namespace

std::string
MicroOp::toString() const
{
    std::ostringstream os;
    os << opName(op);
    if (dst != kNoReg)
        os << " r" << unsigned(dst);
    if (src1 != kNoReg)
        os << ", r" << unsigned(src1);
    if (src2 != kNoReg)
        os << ", r" << unsigned(src2);
    if (op == Op::Branch || op == Op::Jump)
        os << " -> " << target;
    if (op == Op::Call)
        os << " f" << callee;
    if (imm != 0)
        os << " [imm=" << imm << "]";
    return os.str();
}

MicroOp
movImm(RegId dst, std::int64_t imm)
{
    MicroOp u;
    u.op = Op::IntAlu;
    u.alu = AluOp::MovI;
    u.dst = dst;
    u.imm = imm;
    return u;
}

MicroOp
add(RegId dst, RegId src1, RegId src2)
{
    MicroOp u;
    u.op = Op::IntAlu;
    u.alu = AluOp::Add;
    u.dst = dst;
    u.src1 = src1;
    u.src2 = src2;
    return u;
}

MicroOp
addImm(RegId dst, RegId src1, std::int64_t imm)
{
    MicroOp u;
    u.op = Op::IntAlu;
    u.alu = AluOp::Add;
    u.dst = dst;
    u.src1 = src1;
    u.imm = imm;
    return u;
}

MicroOp
andImm(RegId dst, RegId src1, std::int64_t imm)
{
    MicroOp u;
    u.op = Op::IntAlu;
    u.alu = AluOp::And;
    u.dst = dst;
    u.src1 = src1;
    u.imm = imm;
    return u;
}

MicroOp
shlImm(RegId dst, RegId src1, std::int64_t imm)
{
    MicroOp u;
    u.op = Op::IntAlu;
    u.alu = AluOp::Shl;
    u.dst = dst;
    u.src1 = src1;
    u.imm = imm;
    return u;
}

MicroOp
mul(RegId dst, RegId src1, RegId src2)
{
    MicroOp u;
    u.op = Op::IntMul;
    u.dst = dst;
    u.src1 = src1;
    u.src2 = src2;
    return u;
}

MicroOp
load(RegId dst, RegId base, std::int64_t off)
{
    MicroOp u;
    u.op = Op::Load;
    u.dst = dst;
    u.src1 = base;
    u.imm = off;
    return u;
}

MicroOp
loadAbs(RegId dst, Addr addr)
{
    MicroOp u;
    u.op = Op::Load;
    u.dst = dst;
    u.imm = static_cast<std::int64_t>(addr);
    return u;
}

MicroOp
store(RegId base, std::int64_t off, RegId value)
{
    MicroOp u;
    u.op = Op::Store;
    u.src1 = base;
    u.src2 = value;
    u.imm = off;
    return u;
}

MicroOp
branch(Cond c, RegId src1, RegId src2, std::uint32_t target)
{
    MicroOp u;
    u.op = Op::Branch;
    u.cond = c;
    u.src1 = src1;
    u.src2 = src2;
    u.target = target;
    return u;
}

MicroOp
branchImm(Cond c, RegId src1, std::int64_t imm, std::uint32_t target)
{
    MicroOp u;
    u.op = Op::Branch;
    u.cond = c;
    u.src1 = src1;
    u.imm = imm;
    u.target = target;
    return u;
}

MicroOp
jump(std::uint32_t target)
{
    MicroOp u;
    u.op = Op::Jump;
    u.target = target;
    return u;
}

MicroOp
call(FuncId callee)
{
    MicroOp u;
    u.op = Op::Call;
    u.callee = callee;
    return u;
}

MicroOp
indirectCall(RegId targetReg)
{
    MicroOp u;
    u.op = Op::IndirectCall;
    u.src1 = targetReg;
    return u;
}

MicroOp
ret()
{
    MicroOp u;
    u.op = Op::Return;
    return u;
}

MicroOp
fence()
{
    MicroOp u;
    u.op = Op::Fence;
    return u;
}

MicroOp
nop()
{
    return MicroOp{};
}

} // namespace perspective::sim
