/**
 * @file
 * Kasper-style transient-execution gadget scanner.
 *
 * The scanner mirrors the Kasper + Syzkaller pipeline the paper
 * augments (Sections 5.4, 6.1, 8.2): a coverage-guided fuzzing loop
 * generates syscall invocations (including error-injection and
 * path-variant knobs), executions are traced, and every newly-covered
 * function pays a speculative-taint-analysis cost proportional to its
 * size. Analyzing a function that contains a planted gadget discovers
 * it.
 *
 * Perspective's contribution is reproduced by the *bounded* mode:
 * functions outside a given ISV are skipped entirely — they cannot
 * execute speculatively, so auditing them is unnecessary — which
 * raises the discovery rate (gadgets per simulated hour, Figure 9.1)
 * and yields the exclusion list that hardens the view into ISV++.
 */

#ifndef PERSPECTIVE_ANALYSIS_SCANNER_HH
#define PERSPECTIVE_ANALYSIS_SCANNER_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/isv.hh"
#include "kernel/image.hh"
#include "kernel/interp.hh"
#include "kernel/syscall_exec.hh"

namespace perspective::analysis
{

/** Fuzzing campaign configuration. */
struct ScannerConfig
{
    std::uint64_t seed = 7;
    /** Fuzzing executions to run. */
    unsigned executions = 3000;
    /** Simulated seconds of raw execution per executed micro-op.
     * Kasper's bottleneck is the taint analysis, not execution. */
    double execCostSec = 2e-6;
    /** Fixed cost per fuzzing execution (input generation, VM
     * syscall setup, instrumented run — the Syzkaller share). */
    double perExecCostSec = 0.55;
    /** Simulated seconds of taint analysis per micro-op of a newly
     * covered function. */
    double analysisCostSec = 90e-3;
};

/** Outcome of a scanning campaign. */
struct ScanResult
{
    unsigned gadgetsFound = 0;
    unsigned mdsFound = 0;
    unsigned portFound = 0;
    unsigned cacheFound = 0;
    double simHours = 0;
    unsigned functionsAnalyzed = 0;
    unsigned executions = 0;
    std::vector<sim::FuncId> vulnerableFunctions;

    double
    discoveryRate() const
    {
        return simHours <= 0 ? 0 : gadgetsFound / simHours;
    }
};

/** The scanner itself. */
class GadgetScanner
{
  public:
    /**
     * @param exec syscall executor providing semantic prepare/finish
     *        (the scanner fuzzes against live kernel state).
     */
    GadgetScanner(kernel::KernelImage &img, sim::Memory &mem,
                  kernel::SyscallExecutor &exec, kernel::Pid pid)
        : img_(img), mem_(mem), exec_(exec), pid_(pid)
    {
    }

    /**
     * Run a campaign. When @p bound is non-null, only functions
     * inside the view are instrumented and analyzed (Perspective-
     * accelerated auditing).
     */
    ScanResult scan(const ScannerConfig &cfg,
                    const core::IsvView *bound = nullptr);

  private:
    std::uint64_t rnd(std::uint64_t bound);

    kernel::KernelImage &img_;
    sim::Memory &mem_;
    kernel::SyscallExecutor &exec_;
    kernel::Pid pid_;
    std::uint64_t rngState_ = 0;
};

} // namespace perspective::analysis

#endif // PERSPECTIVE_ANALYSIS_SCANNER_HH
