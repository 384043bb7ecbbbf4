/**
 * @file
 * Program: a collection of functions laid out in the virtual address
 * space. The kernel image and userspace workload drivers are both
 * Programs; the pipeline fetches micro-ops from one by (FuncId, index).
 */

#ifndef PERSPECTIVE_SIM_PROGRAM_HH
#define PERSPECTIVE_SIM_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "inst.hh"
#include "types.hh"

namespace perspective::sim
{

/**
 * One function: a named, contiguous sequence of micro-ops placed at a
 * base virtual address. Kernel functions additionally carry subsystem
 * metadata used by the call-graph analyses.
 */
struct Function
{
    std::string name;
    FuncId id = kNoFunc;
    bool kernel = false;

    /** Base VA of the first micro-op (assigned by Program::layout). */
    Addr base = 0;

    std::vector<MicroOp> body;

    /** VA of micro-op @p idx. */
    Addr
    instAddr(std::uint32_t idx) const
    {
        return base + Addr{idx} * kInstBytes;
    }
};

/**
 * A set of functions with a deterministic code layout. Functions are
 * packed in id order starting at a base address, page-aligned so that
 * ISV shadow pages map cleanly.
 */
class Program
{
  public:
    /** Create a function; returns its id. Body may be filled in later. */
    FuncId addFunction(std::string name, bool kernel);

    /** Reserve room for @p n functions, so a generator that knows its
     * scale adds them without regrowing the function table. */
    void reserve(std::size_t n) { funcs_.reserve(n); }

    Function &func(FuncId id) { return funcs_[id]; }
    const Function &func(FuncId id) const { return funcs_[id]; }

    std::size_t numFunctions() const { return funcs_.size(); }

    /**
     * Assign base addresses: kernel functions pack from
     * kKernelTextBase, user functions from kUserBase. Must be called
     * after all bodies are final and before simulation.
     */
    void layout();

    /** Map a code VA back to (function, index); kNoFunc if unmapped. */
    std::pair<FuncId, std::uint32_t> resolve(Addr va) const;

    /** Total micro-ops across all functions. */
    std::size_t totalOps() const;

    /** Human-readable listing of @p id's body (for debugging). */
    std::string disassemble(FuncId id) const;

    /** Highest kernel-text VA in use (exclusive), for sizing tables. */
    Addr kernelTextEnd() const { return kernelTextEnd_; }

  private:
    std::vector<Function> funcs_;

    /** Sorted (base, id) pairs for resolve(): the user run and the
     * kernel run, each ascending as laid out, merged. */
    std::vector<std::pair<Addr, FuncId>> layoutIndex_;

    /** Direct page-indexed table over kernel text: for each 4 KiB
     * page, the layoutIndex_ position of the last function whose
     * base is at or below the page's first byte. resolve() starts
     * there and walks the few functions packed into the page,
     * instead of binary-searching the whole image per query. */
    std::vector<std::uint32_t> kernelPageIdx_;

    Addr kernelTextEnd_ = kKernelTextBase;
    bool laidOut_ = false;
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

#endif // PERSPECTIVE_SIM_PROGRAM_HH
