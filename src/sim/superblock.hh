/**
 * @file
 * Predecoded superblocks: straight-line runs of micro-ops, decoded
 * once and consumed whole by the interpreter's threaded dispatch, the
 * pipeline front end, and the functional sampling phases.
 *
 * A superblock starts at an arbitrary (function, index) position and
 * runs until the first op that can redirect the op stream — control
 * flow (Branch/Jump/Call/IndirectCall/Return) or a Fence — which is
 * included as the block's terminator. Every op carries its
 * precomputed PC, cache-line transition flag and a flat dispatch kind
 * (ALU sub-ops unfolded), so consumers replace the per-op
 * decode-and-switch with a table- or label-indexed jump.
 *
 * Blocks are built lazily per start position and derive purely from
 * the Program's immutable text. The only event that rewrites text is
 * Program::layout() (before simulation); module load/unload flips
 * reachability in *data* (an ops-table slot), never the text, so
 * cached blocks stay valid across it. Each cache still records the
 * Program's code generation and drops everything if it ever moves —
 * the defensive half of the invalidation contract (DESIGN §5.5).
 */

#ifndef PERSPECTIVE_SIM_SUPERBLOCK_HH
#define PERSPECTIVE_SIM_SUPERBLOCK_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "inst.hh"
#include "program.hh"
#include "types.hh"

namespace perspective::sim
{

/**
 * Flat dispatch kind: Op with AluOp unfolded, so threaded dispatch
 * needs a single indexed jump and no secondary switch.
 */
enum SbKind : std::uint8_t
{
    kSbNop = 0,
    kSbAluAdd,
    kSbAluSub,
    kSbAluAnd,
    kSbAluShl,
    kSbAluShr,
    kSbAluMovI,
    kSbAluMov,
    kSbMul,
    kSbLoad,
    kSbStore,
    kSbBranch,
    kSbJump,
    kSbCall,
    kSbIndirectCall,
    kSbReturn,
    kSbFence,
    /** Sentinel terminator for blocks cut by the end of the function
     * body (op pointer is null): the consumer applies its
     * ran-off-the-end rule — the interpreter treats it as a return. */
    kSbEnd,
    kSbNumKinds,
};

/** One predecoded micro-op inside a superblock. */
struct SbOp
{
    const MicroOp *op = nullptr;
    Addr pc = 0;
    std::uint8_t kind = kSbNop;
    /** This op's PC starts a different I-cache line than the previous
     * op in the block (always set for the block's first op). When
     * clear, the line-transition check can be skipped outright. */
    bool newLine = false;
};

/** A straight-line run; the last op is always a terminator — a real
 * control/fence op, or the kSbEnd sentinel when the body ran out. ops
 * is therefore never empty and dispatch loops need no bounds check. */
struct Superblock
{
    std::vector<SbOp> ops;

    /** Dispatch kind of the terminating op. */
    std::uint8_t endKind = kSbEnd;

    /** Number of ops before the terminator (straight-line prefix). */
    std::size_t
    bodyLen() const
    {
        return ops.empty() ? 0 : ops.size() - 1;
    }
};

/** Map a micro-op to its flat dispatch kind. */
std::uint8_t sbKindOf(const MicroOp &op);

/**
 * Lazily-built per-consumer store of superblocks, keyed by start
 * position. Not thread-safe: each Pipeline/Interpreter (or the
 * Experiment that owns them) keeps its own — sweep cells run on
 * separate stacks, so nothing is shared across threads.
 */
class SuperblockCache
{
  public:
    explicit SuperblockCache(const Program &prog) : prog_(&prog) {}

    /** The superblock starting at (@p func, @p idx); built on first
     * request. The reference is stable until invalidation. */
    const Superblock &
    at(FuncId func, std::uint32_t idx)
    {
        if (prog_->codeGen() != gen_) [[unlikely]] {
            blocks_.clear();
            gen_ = prog_->codeGen();
        }
        std::uint64_t key =
            (std::uint64_t{func} << 32) | std::uint64_t{idx};
        auto it = blocks_.find(key);
        if (it != blocks_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        return blocks_.emplace(key, build(func, idx))
            .first->second;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t size() const { return blocks_.size(); }

  private:
    Superblock build(FuncId func, std::uint32_t idx) const;

    const Program *prog_;
    std::uint64_t gen_ = 0;
    std::unordered_map<std::uint64_t, Superblock> blocks_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Shared wild-indirect-target rule (single source of truth for the
 * pipeline and the interpreter): a register value names a callable
 * function iff it is in range. An out-of-range value — possible under
 * fuzzing or attack gadgets — architecturally behaves as a no-op
 * call: execution falls through to the next op, no frame is pushed
 * and no predictor learns the wild value.
 */
inline bool
validCallTarget(const Program &prog, std::uint64_t raw)
{
    return raw < prog.numFunctions();
}

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_SUPERBLOCK_HH
