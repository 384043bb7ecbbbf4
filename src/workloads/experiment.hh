/**
 * @file
 * Experiment: one fully-wired simulation stack — memory, kernel
 * image, kernel state, driver binary, processes, defense scheme —
 * for one workload under one scheme. This is the harness every
 * bench binary builds on.
 */

#ifndef PERSPECTIVE_WORKLOADS_EXPERIMENT_HH
#define PERSPECTIVE_WORKLOADS_EXPERIMENT_HH

#include <memory>
#include <optional>
#include <string>

#include "boot_cache.hh"
#include "core/isv_builders.hh"
#include "core/perspective.hh"
#include "defenses/schemes.hh"
#include "driver.hh"
#include "kernel/image.hh"
#include "kernel/interp.hh"
#include "kernel/kstate.hh"
#include "kernel/syscall_exec.hh"
#include "profiles.hh"
#include "sim/pipeline.hh"

namespace perspective::workloads
{

/** Evaluated defense schemes (Chapter 7). */
enum class Scheme
{
    Unsafe,
    Fence,
    Dom,
    Stt,
    Spot,
    SpecCfi,
    InvisiSpec,
    PerspectiveStatic,
    Perspective,
    PerspectivePlusPlus,
};

const char *schemeName(Scheme s);

/** Nine schemes, every one but InvisiSpec: Unsafe, FENCE, the
 * DOM/STT/spot comparisons of Section 9.1, SpecCFI and the three
 * Perspective flavors. */
std::vector<Scheme> allSchemes();

/** Sampling outcome attached to a RunResult (sampled mode only). */
struct SampledStats
{
    bool active = false;       ///< the run executed in sampled mode
    std::uint64_t windows = 0; ///< detailed windows in the estimate
    std::uint64_t windowInsts = 0;
    std::uint64_t warmingInsts = 0;
    std::uint64_t periodInsts = 0;
    double cpiMean = 0.0;
    double cpiCi95 = 0.0; ///< 95% CI half-width on the mean CPI
    double relError = 0.0; ///< cpiCi95 / cpiMean
    std::uint64_t sampledInsts = 0; ///< insts inside detailed windows
    /** Raw detailed-window cycles before extrapolation (RunResult::
     * cycles is cpiMean x instructions in sampled mode). */
    std::uint64_t measuredCycles = 0;
};

/** Measured outcome of one workload run. */
struct RunResult
{
    sim::Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t kernelInstructions = 0;
    std::uint64_t fences = 0;
    std::uint64_t isvFences = 0;
    std::uint64_t dsvFences = 0;
    double isvCacheHitRate = 0;
    double dsvCacheHitRate = 0;
    sim::StatSet stats;
    /** Transient-leakage accounting for the measured iterations
     * (observation-only; see sim/leakage.hh and DESIGN §5.6). */
    sim::LeakageSummary leakage;
    /** Sampled-simulation estimate (DESIGN §5.8); active only when
     * the run executed in sampled mode, in which case `cycles` is the
     * extrapolated value and `stats` covers only detailed windows. */
    SampledStats sampling;

    double
    kernelFraction() const
    {
        return instructions == 0
                   ? 0.0
                   : static_cast<double>(kernelInstructions) /
                         static_cast<double>(instructions);
    }
};

/** One workload under one scheme on a freshly-booted stack. */
class Experiment
{
  public:
    /**
     * @p sampling selects sampled simulation (DESIGN §5.8; the
     * default is exact, and sweep cells pass the PERSPECTIVE_SAMPLE
     * choice through SweepCell::sampling). Sampled results are
     * statistical: RunResult::cycles is an extrapolated estimate
     * carrying the RunResult::sampling confidence interval, and
     * stats cover only the detailed windows.
     *
     * @p perspective configures the PerspectivePolicy the Perspective
     * schemes build and run (sensitivity and ablation cells set it).
     * @throws std::invalid_argument when any other scheme gets a
     *         non-default @p perspective.
     */
    Experiment(const WorkloadProfile &profile, Scheme scheme,
               std::uint64_t seed = 42,
               sim::SamplingParams sampling = {},
               core::PerspectiveConfig perspective = {});

    /** Run @p iterations measured request iterations (after
     * @p warmup unmeasured ones) and report the aggregate. */
    RunResult run(unsigned iterations, unsigned warmup = 2);

    // -- component access (attack PoCs, surface studies) ---------------
    // The image and drivers may be shared (read-only) with other
    // Experiments of the same seed; see BootImage.
    kernel::KernelImage &image() { return *img_; }
    kernel::KernelState &kernelState() { return *ks_; }
    kernel::SyscallExecutor &executor() { return *exec_; }
    sim::Memory &memory() { return mem_; }
    sim::Pipeline &pipeline() { return *cpu_; }
    DriverSet &drivers() { return *drivers_; }
    const WorkloadProfile &profile() const { return profile_; }
    Scheme scheme() const { return scheme_; }
    kernel::Pid mainPid() const { return mainPid_; }
    kernel::Pid victimPid() const { return victimPid_; }

    /** The active ISV view (Perspective schemes only). */
    core::IsvView *isvView() { return isv_ ? &*isv_ : nullptr; }
    /** The scheme's policy as a PerspectivePolicy (Perspective
     * schemes only; null otherwise). */
    core::PerspectivePolicy *perspectivePolicy() { return perspective_; }
    /** The scheme's policy (null for Unsafe). */
    sim::SpeculationPolicy *policy() { return policy_.get(); }

    /** The pipeline's transient-leakage summary, with each top
     * gadget's function names resolved. */
    sim::LeakageSummary leakageSummary() const;

    /** Execute one request iteration on the pipeline and return its
     * cycles/instructions (used by run() and by PoC drivers). */
    sim::RunResult runRequestOnPipeline();

    /** Same, but on behalf of @p pid (context-switch studies). The
     * pipeline's ASID and kernel stack switch to that task's. */
    sim::RunResult runRequestAs(kernel::Pid pid);

    /**
     * Run one syscall of @p pid on the pipeline: prepare it, load its
     * registers and @p pad_iters user-side pad iterations, optionally
     * override the first argument with the raw @p arg0 (an attacker's
     * unchecked index), run the syscall's driver and finish it. The
     * pipeline's ASID and kernel stack are left as they are.
     */
    sim::RunResult runSyscall(kernel::Pid pid,
                              const kernel::SyscallInvocation &inv,
                              std::uint64_t pad_iters,
                              std::optional<std::uint64_t> arg0 = {});

    /** Trace one request iteration on the interpreter, reporting
     * function entries to @p on_func. */
    void traceRequest(const std::function<void(sim::FuncId)> &on_func);

    /** Register an additional context (e.g. the attacker process in
     * PoCs) with the Perspective policy. */
    void registerPerspectiveContext(kernel::Pid pid);

  private:
    void buildIsv();
    /** Trace one syscall of the main process on the interpreter from
     * zeroed registers (buildIsv's startup trace, traceRequest). */
    void traceInvocation(const kernel::SyscallInvocation &inv,
                         const std::function<void(sim::FuncId)> &on_func);

    WorkloadProfile profile_;
    Scheme scheme_;

    sim::Memory mem_;
    std::shared_ptr<BootImage> boot_;
    kernel::KernelImage *img_ = nullptr;     ///< boot_'s image
    DriverSet *drivers_ = nullptr;           ///< boot_'s drivers
    std::unique_ptr<kernel::KernelState> ks_;
    std::unique_ptr<kernel::SyscallExecutor> exec_;
    std::unique_ptr<sim::Pipeline> cpu_;
    /** Long-lived tracing interpreter: reset() per invocation, so its
     * call stack persists across the whole ISV build instead of being
     * rebuilt per syscall. */
    std::unique_ptr<kernel::Interpreter> interp_;

    kernel::Pid mainPid_ = 0;
    kernel::Pid victimPid_ = 0; ///< co-tenant with secrets

    std::optional<core::IsvView> isv_;
    std::unique_ptr<sim::SpeculationPolicy> policy_;
    core::PerspectivePolicy *perspective_ = nullptr; ///< policy_, typed
};

} // namespace perspective::workloads

#endif // PERSPECTIVE_WORKLOADS_EXPERIMENT_HH
