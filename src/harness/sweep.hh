/**
 * @file
 * Sweep runner: every figure in the paper is a grid of
 * (workload x scheme) cells, each booting a fresh simulated stack.
 * An Experiment owns its own Memory/KernelImage/Pipeline, so cells
 * are share-nothing and embarrassingly parallel. The runner executes
 * a grid on a thread pool, returns results in deterministic grid
 * order regardless of completion order, and can emit the whole sweep
 * as JSON for machine consumption (--json / PERSPECTIVE_BENCH_JSON),
 * with --jobs / PERSPECTIVE_JOBS controlling parallelism.
 *
 * Cells are submitted to the pool in grid order, and every cell is
 * simulated on every run: no result is ever served from disk. The
 * measured schedule (makespan, ideal makespan, per-worker busy time)
 * lands in the JSON.
 */

#ifndef PERSPECTIVE_HARNESS_SWEEP_HH
#define PERSPECTIVE_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "json.hh"
#include "pool.hh"
#include "sim/trace.hh"
#include "workloads/experiment.hh"

namespace perspective::harness
{

/** One grid cell: a workload under a scheme with a seed. */
struct SweepCell
{
    workloads::WorkloadProfile profile;
    workloads::Scheme scheme = workloads::Scheme::Unsafe;
    std::uint64_t seed = 42;
    unsigned iterations = 30;
    unsigned warmup = 3;

    /** Sampled simulation (statistical; DESIGN §5.8). Defaults to
     * the PERSPECTIVE_SAMPLE environment switch. */
    sim::SamplingParams sampling = sim::SamplingParams::fromEnv();

    /** The PerspectivePolicy configuration the cell runs; only the
     * Perspective schemes accept a non-default one. */
    core::PerspectiveConfig perspective;

    /** Labels carried into the result and the JSON emission (e.g. an
     * ablation's name). They name a custom body in the cell's key
     * and are not part of a default-body cell's key. */
    std::map<std::string, std::string> tags;

    /**
     * Optional custom cell body. When empty the runner constructs
     * Experiment(profile, scheme, seed, sampling, perspective) and
     * calls run(iterations, warmup). The runner cannot see what a
     * custom body simulates, so such a cell's tags join its key.
     * Custom bodies must stay share-nothing: build every simulation
     * object inside the callback.
     */
    std::function<workloads::RunResult(const SweepCell &)> body;
};

/** Outcome of one cell, plus wall-clock cost and metadata. */
struct CellResult
{
    std::string workload;
    std::string scheme;
    std::uint64_t seed = 0;
    unsigned iterations = 0;
    unsigned warmup = 0;
    /** Sampling configuration the cell ran under (disabled = exact);
     * the outcome lives in result.sampling. */
    sim::SamplingParams sampling;
    core::PerspectiveConfig perspective;
    std::map<std::string, std::string> tags;
    bool customBody = false; ///< ran SweepCell::body

    workloads::RunResult result;
    double wallSeconds = 0;

    bool ok = false;
    std::string error; ///< exception text when !ok

    /** Pool worker lane that executed the cell (0 when run
     * inline). */
    unsigned worker = 0;
};

/** Parallelism / emission knobs, usually parsed from argv + env. */
struct SweepOptions
{
    std::string benchName;
    unsigned jobs = 0;     ///< 0 = hardware concurrency
    std::string jsonPath;  ///< empty = no JSON emission
    std::string tracePath; ///< empty = no Chrome trace emission

    // Unread; kept because perfbench/grid.cc sets it (ROADMAP item 1).
    bool noCache = false;

    /** Effective worker count after defaulting. */
    unsigned effectiveJobs() const;
};

/**
 * Parse `--jobs N` / `--json PATH` / `--trace-out PATH` (and
 * `--help`) from argv, with PERSPECTIVE_JOBS /
 * PERSPECTIVE_BENCH_JSON / PERSPECTIVE_TRACE_OUT as environment
 * fallbacks. Unknown arguments print usage and exit(2).
 */
SweepOptions parseSweepArgs(const std::string &bench_name, int argc,
                            char **argv);

/** Build-time `git describe` of this binary ("unknown" outside a
 * checkout); stamped into every emitted result's provenance. */
const char *buildGitDescribe();

/**
 * Runs cell grids and accumulates their results. A bench binary may
 * call run() several times (one per table section); emitJson()
 * writes everything accumulated so far.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts);

    /**
     * Execute @p cells and return their results in grid order.
     * Cell failures (exceptions) are captured per-cell in
     * CellResult::error rather than tearing down the sweep.
     */
    std::vector<CellResult> run(const std::vector<SweepCell> &cells);

    /** Everything accumulated across run() calls, in order. */
    const std::vector<CellResult> &results() const
    {
        return results_;
    }

    /** Total wall-clock seconds spent inside run(). */
    double wallSeconds() const { return wallSeconds_; }

    unsigned jobs() const { return opts_.effectiveJobs(); }

    /** The sweep as a JSON document. */
    Json toJson() const;

    /**
     * If a JSON path is configured, write the sweep there and print
     * a one-line note; returns false on I/O failure. No-op (true)
     * when no path is configured.
     */
    bool emitJson() const;

    /**
     * If a trace path is configured, write the structured event log
     * there as Chrome trace JSON. No-op (true) when no path is
     * configured.
     */
    bool emitTrace() const;

    /** emitJson() and emitTrace(); false if either failed. */
    bool emitOutputs() const;

    /** The structured event log backing --trace-out (nullptr when
     * tracing is off). */
    sim::trace::EventLog *traceLog() const { return traceLog_.get(); }

    ~SweepRunner();

  private:
    SweepOptions opts_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<sim::trace::EventLog> traceLog_;
    std::vector<CellResult> results_;
    double wallSeconds_ = 0;

    // Schedule accounting (accumulated across run()s).
    double idealMakespan_ = 0;
    std::vector<double> workerBusy_;
};

/**
 * JSON object for one cell result (schema used by emitJson): raw
 * metrics, the full counter StatSet, histogram summaries and a
 * provenance block (scheme, workload, config hash, git describe,
 * wall seconds, host jobs).
 */
Json cellToJson(const CellResult &r, unsigned jobs);

/** @p cell's configuration as its result records it, before it
 * runs: everything cellConfigHash reads. */
CellResult describeCell(const SweepCell &cell);

/** Deterministic FNV-1a hash, as 16 hex digits, of what a cell
 * simulates: workload, scheme, seed, iterations, warmup, sampling
 * spec and every PerspectiveConfig field, plus a custom body's tags
 * as its name. The provenance key bench_report matches cells by. */
std::string cellConfigHash(const CellResult &r);

/**
 * Geometric mean of @p ratios (the correct aggregate for normalized
 * latencies/throughputs; arithmetic means overweight outliers).
 * Returns 0 for an empty input; non-positive entries are clamped to
 * a tiny epsilon so a degenerate cell cannot poison the aggregate.
 */
double geomean(const std::vector<double> &ratios);

} // namespace perspective::harness

#endif // PERSPECTIVE_HARNESS_SWEEP_HH
