/**
 * @file
 * Fundamental scalar types shared by the whole simulator.
 */

#ifndef PERSPECTIVE_SIM_TYPES_HH
#define PERSPECTIVE_SIM_TYPES_HH

#include <cstdint>

namespace perspective::sim
{

/** A virtual or physical byte address. */
using Addr = std::uint64_t;

/** A cycle count. */
using Cycle = std::uint64_t;

/** A logical register identifier. */
using RegId = std::uint8_t;

/** A kernel/user function identifier inside a Program. */
using FuncId = std::uint32_t;

/** Address-space identifier used to tag hardware structures. */
using Asid = std::uint16_t;

/** Sentinel meaning "no register operand". */
inline constexpr RegId kNoReg = 0xff;

/** Sentinel meaning "no function". */
inline constexpr FuncId kNoFunc = 0xffffffff;

/** Number of architectural registers in the toy ISA. */
inline constexpr unsigned kNumRegs = 32;

/** Bytes per page, log2 and linear. */
inline constexpr unsigned kPageShift = 12;
inline constexpr Addr kPageSize = Addr{1} << kPageShift;

/** Bytes occupied by one micro-op in the code layout. */
inline constexpr Addr kInstBytes = 4;

/**
 * Virtual-address map of the simulated machine. The layout mirrors a
 * simplified x86-64 Linux split: user space low, kernel text and the
 * direct map high. ISV pages shadow kernel text at a fixed offset
 * (Section 6.2 of the paper).
 */
inline constexpr Addr kUserBase = 0x0000'0000'0040'0000;
inline constexpr Addr kKernelTextBase = 0xffff'8000'0000'0000;
inline constexpr Addr kIsvShadowOffset = 0x0000'2000'0000'0000;
inline constexpr Addr kDirectMapBase = 0xffff'c000'0000'0000;

/** Convert an address to its page frame number. */
constexpr Addr
pageNumber(Addr a)
{
    return a >> kPageShift;
}

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_TYPES_HH
