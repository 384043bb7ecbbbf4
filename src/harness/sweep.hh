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
 * Three sweep-scaling layers sit on top:
 *  - a persistent cell cache (--cache-dir / PERSPECTIVE_CACHE_DIR,
 *    --no-cache): cells whose (config hash x code fingerprint) was
 *    simulated before are served from disk, marked "cached": true,
 *    with their original provenance — see cellcache.hh;
 *  - deterministic sharding (--shard K/N / PERSPECTIVE_SHARD): each
 *    process runs the cells a stable hash assigns to its shard and
 *    emits a normal sweep JSON; bench_report --merge recombines;
 *  - cost-aware scheduling: cells are submitted longest-first using
 *    cached wall seconds (falling back to a work-size heuristic for
 *    unseen cells), which trims the makespan tail while results stay
 *    in deterministic grid order. The measured schedule (makespan,
 *    ideal makespan, per-worker busy time) lands in the JSON.
 */

#ifndef PERSPECTIVE_HARNESS_SWEEP_HH
#define PERSPECTIVE_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cellcache.hh"
#include "json.hh"
#include "pool.hh"
#include "sim/trace.hh"
#include "workloads/experiment.hh"

namespace perspective::harness
{

class FleetCoordinator;
class FleetWorker;

/** One grid cell: a workload under a scheme with a seed. */
struct SweepCell
{
    workloads::WorkloadProfile profile;
    workloads::Scheme scheme = workloads::Scheme::Unsafe;
    std::uint64_t seed = 42;
    unsigned iterations = 30;
    unsigned warmup = 3;

    /** Sampled simulation (statistical; DESIGN §5.8). Enabled cells
     * mix the full sampling spec into the config hash, so sampled
     * and exact cells never share cache entries or cost-table rows;
     * exact cells hash byte-identically to earlier schemas. Defaults
     * to the PERSPECTIVE_SAMPLE environment switch. */
    sim::SamplingParams sampling = sim::SamplingParams::fromEnv();

    /** Free-form metadata carried into the result and the JSON
     * emission (e.g. an ablation's config knob values). */
    std::map<std::string, std::string> tags;

    /**
     * Optional custom cell body. When empty the runner constructs
     * Experiment(profile, scheme, seed) and calls
     * run(iterations, warmup). Custom bodies (ablations wiring
     * bespoke PerspectiveConfigs) must stay share-nothing: build
     * every simulation object inside the callback.
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
    std::map<std::string, std::string> tags;

    workloads::RunResult result;
    double wallSeconds = 0;

    bool ok = false;
    std::string error; ///< exception text when !ok

    /** Position in the accumulated grid (across run() calls); the
     * key shard merging recombines on. */
    std::uint64_t gridIndex = 0;

    /** Served from the persistent cell cache: `result` and
     * `wallSeconds` are the original run's, `raw` re-emits the
     * original JSON (provenance included) verbatim. */
    bool cached = false;
    std::shared_ptr<const Json> raw;

    /** Owned by another shard: not executed, excluded from JSON
     * emission, zeroed result. */
    bool skipped = false;

    /** Pool worker lane that executed the cell (0 when cached,
     * skipped, or run inline). */
    unsigned worker = 0;
};

/** Parallelism / emission knobs, usually parsed from argv + env. */
struct SweepOptions
{
    std::string benchName;
    unsigned jobs = 0;     ///< 0 = hardware concurrency
    std::string jsonPath;  ///< empty = no JSON emission
    std::string tracePath; ///< empty = no Chrome trace emission

    /** Persistent cell-cache directory; empty = no cache. */
    std::string cacheDir;
    /** --no-cache: ignore cacheDir/PERSPECTIVE_CACHE_DIR entirely
     * (benches that measure wall time force this). */
    bool noCache = false;

    /** Deterministic grid partition `--shard K/N` (1-based K). The
     * runner executes only the cells whose config-hash shard is K;
     * bench_report --merge recombines the N emitted files. */
    unsigned shardIndex = 1;
    unsigned shardCount = 1;
    bool sharded() const { return shardCount > 1; }

    /** Fleet mode (fleet.hh, DESIGN §5.7): `--fleet N` makes this
     * process the grid-owning coordinator, spawning N worker copies
     * of itself; `--fleet-socket PATH` fixes the listen path (given
     * alone: a coordinator serving externally attached workers
     * only); `--connect PATH` makes this process a worker of the
     * coordinator at PATH. Mutually exclusive with --shard. */
    unsigned fleetWorkers = 0;
    std::string fleetSocket;
    std::string connectPath;
    /** Spawn command for fleet workers (binary path; the coordinator
     * appends --connect). */
    std::vector<std::string> workerArgv;
    bool fleetCoordinator() const
    {
        return fleetWorkers > 0 || !fleetSocket.empty();
    }
    bool fleetWorker() const { return !connectPath.empty(); }

    /** Effective worker count after defaulting. */
    unsigned effectiveJobs() const;
};

/**
 * Parse `--jobs N` / `--json PATH` / `--trace-out PATH` /
 * `--cache-dir PATH` / `--no-cache` / `--shard K/N` / `--fleet N` /
 * `--fleet-socket PATH` / `--connect PATH` (and `--help`) from argv,
 * with PERSPECTIVE_JOBS / PERSPECTIVE_BENCH_JSON /
 * PERSPECTIVE_TRACE_OUT / PERSPECTIVE_CACHE_DIR / PERSPECTIVE_SHARD
 * as environment fallbacks (the fleet flags are argv-only: a worker
 * inheriting a coordinator's environment must not become a
 * coordinator). Unknown arguments print usage and exit(2).
 */
SweepOptions parseSweepArgs(const std::string &bench_name, int argc,
                            char **argv);

/**
 * Which shard (0-based, in [0, shardCount)) owns the cell with
 * @p configHash. Keyed on the stable config hash rather than grid
 * position, so a cell stays on its shard as grids grow or reorder
 * and the partition stays balanced (the hash is uniform).
 */
unsigned shardOf(const std::string &configHash, unsigned shardCount);

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

    bool sharded() const { return opts_.sharded(); }
    unsigned shardIndex() const { return opts_.shardIndex; }
    unsigned shardCount() const { return opts_.shardCount; }

    /** This runner dispatches cells to fleet workers (fleet.hh). */
    bool isFleetCoordinator() const { return fleet_ != nullptr; }
    /** This runner serves cells to a fleet coordinator; it owns no
     * outputs (no JSON/trace/tables) and never touches the cache
     * directory. */
    bool isFleetWorker() const { return fleetClient_ != nullptr; }

    /** The cell cache (always present; memory-only without a
     * directory). */
    CellCache &cache() { return *cache_; }
    const CellCache &cache() const { return *cache_; }

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
    std::vector<CellResult>
    runAsFleetWorker(const std::vector<SweepCell> &cells);

    SweepOptions opts_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<CellCache> cache_;
    std::unique_ptr<sim::trace::EventLog> traceLog_;
    std::unique_ptr<FleetCoordinator> fleet_;
    std::unique_ptr<FleetWorker> fleetClient_;
    std::vector<CellResult> results_;
    double wallSeconds_ = 0;
    std::uint64_t nextGridIndex_ = 0;
    /** run() call ordinal; coordinator and workers execute the same
     * bench main, so the ordinal alone identifies a batch. */
    std::uint64_t batch_ = 0;

    // Cost-aware schedule accounting (accumulated across run()s).
    double idealMakespan_ = 0;
    std::vector<double> workerBusy_;
    std::uint64_t executedCells_ = 0;
    std::uint64_t cachedCells_ = 0;
    std::uint64_t skippedCells_ = 0;
    /** Fleet only: estimated makespan a static --shard split across
     * the same worker count would have had (measured per-cell walls
     * summed per hash-shard, max over shards, accumulated across
     * batches) — the work-stealing speedup denominator. */
    double fleetStaticShardEst_ = 0;
};

/**
 * Recombine shard sweep JSONs (same bench, build, and N) into one
 * complete sweep document: cells sorted back into grid order, cache
 * stats summed, wall_seconds the max shard (shards run
 * concurrently). Returns std::nullopt and sets @p error when the
 * inputs overlap (duplicate shard index or cell), leave grid holes,
 * disagree on the grid size / shard count / build, or predate the
 * sharding schema.
 */
std::optional<Json> mergeSweeps(const std::vector<Json> &shards,
                                const std::vector<std::string> &names,
                                std::string &error);

/** Rebuild a CellResult from a cached cell JSON (scalar metrics and
 * counters; the raw JSON rides along for verbatim emission). */
CellResult cellFromCachedJson(const Json &cell);

/**
 * JSON object for one cell result (schema used by emitJson): raw
 * metrics, the full counter StatSet, histogram summaries, sampled
 * time series, and a provenance block (scheme, workload, config
 * hash, git describe, wall seconds, host jobs).
 */
Json cellToJson(const CellResult &r, unsigned jobs);

/** Deterministic FNV-1a hash of a cell's configuration
 * (workload, scheme, seed, iterations, warmup, execution mode,
 * tags) as 16 hex
 * digits; the provenance key bench_report matches cells by, the
 * cell cache stores under, and the shard partition keys on. Cells
 * with custom bodies must carry distinguishing tags (the grid
 * benches' existing convention) or they alias. */
std::string cellConfigHash(const CellResult &r);

/** Same hash computed ahead of execution, from the cell itself. */
std::string cellConfigHash(const SweepCell &c);

/**
 * Geometric mean of @p ratios (the correct aggregate for normalized
 * latencies/throughputs; arithmetic means overweight outliers).
 * Returns 0 for an empty input; non-positive entries are clamped to
 * a tiny epsilon so a degenerate cell cannot poison the aggregate.
 */
double geomean(const std::vector<double> &ratios);

} // namespace perspective::harness

#endif // PERSPECTIVE_HARNESS_SWEEP_HH
