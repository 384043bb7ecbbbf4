#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>

#include <unistd.h>

#include "chrome_trace.hh"
#include "fleet.hh"

namespace perspective::harness
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned
parseJobs(const std::string &s, const char *origin)
{
    char *end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || v < 1 || v > 4096) {
        std::fprintf(stderr,
                     "sweep: bad job count '%s' from %s "
                     "(want 1..4096)\n",
                     s.c_str(), origin);
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

void
parseShard(const std::string &s, const char *origin,
           SweepOptions &opts)
{
    unsigned k = 0, n = 0;
    int consumed = 0;
    if (std::sscanf(s.c_str(), "%u/%u%n", &k, &n, &consumed) != 2 ||
        static_cast<std::size_t>(consumed) != s.size() || n < 1 ||
        n > 4096 || k < 1 || k > n) {
        std::fprintf(stderr,
                     "sweep: bad shard spec '%s' from %s "
                     "(want K/N with 1 <= K <= N <= 4096)\n",
                     s.c_str(), origin);
        std::exit(2);
    }
    opts.shardIndex = k;
    opts.shardCount = n;
}

/** Probe @p path for writability without truncating it; a sweep can
 * run for hours and must not discover a typo'd path at emit time. */
void
probeWritable(const std::string &path, const char *what)
{
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
        std::fprintf(stderr, "sweep: cannot open %s '%s' for "
                             "writing\n",
                     what, path.c_str());
        std::exit(2);
    }
}

std::string
hashCellConfig(const std::string &workload, const std::string &scheme,
               std::uint64_t seed, unsigned iterations,
               unsigned warmup, const sim::SamplingParams &sampling,
               const std::map<std::string, std::string> &tags)
{
    // FNV-1a 64 over every knob that determines the cell's outcome;
    // identical configurations hash identically across runs, hosts
    // and job counts, so bench_report can match cells by this key,
    // the cell cache can store under it, and the shard partition can
    // key on it.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0x1f; // field separator
        h *= 1099511628211ull;
    };
    mix(workload);
    mix(scheme);
    mix(std::to_string(seed));
    mix(std::to_string(iterations));
    mix(std::to_string(warmup));
    // The timing-engine field: always the detailed loop. Keeping the
    // literal keeps exact hashes stable against committed baselines
    // and cache entries.
    mix("detailed");
    // Sampled cells mix their full sampling spec so sampled and
    // exact runs can never share cache entries, shards or matches.
    // Disabled sampling mixes nothing: exact cells keep hashing
    // byte-identically to pre-sampling schemas, preserving their
    // cached results and committed baselines.
    if (sampling.enabled)
        mix("sampled:" + sampling.spec());
    for (const auto &[k, v] : tags) {
        mix(k);
        mix(v);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::uint64_t
uintField(const Json &obj, const char *field)
{
    return obj.contains(field) && obj.at(field).isNumber()
               ? obj.at(field).asUint()
               : 0;
}

double
doubleField(const Json &obj, const char *field)
{
    return obj.contains(field) && obj.at(field).isNumber()
               ? obj.at(field).asDouble()
               : 0.0;
}

/** Run one cell (custom body or Experiment), capturing failure and
 * wall seconds into @p slot. Shared by the in-process pool path and
 * the fleet-worker serve loop, so fleet results go through exactly
 * the execution code a single process would use. */
void
executeCell(const SweepCell &cell, CellResult &slot)
{
    auto c0 = Clock::now();
    try {
        if (cell.body) {
            slot.result = cell.body(cell);
        } else {
            workloads::Experiment e(cell.profile, cell.scheme,
                                    cell.seed, cell.sampling);
            slot.result = e.run(cell.iterations, cell.warmup);
        }
        slot.ok = true;
    } catch (const std::exception &ex) {
        slot.ok = false;
        slot.error = ex.what();
    } catch (...) {
        slot.ok = false;
        slot.error = "unknown exception";
    }
    slot.wallSeconds = secondsSince(c0);
}

/** Batch identity for the fleet handshake: FNV-1a over the bench
 * name, the cell count and every cell's config hash, in grid order.
 * Coordinator and worker run the same main(), so agreement here
 * means "cell index K" denotes the same simulation on both ends. */
std::string
batchGridHash(const std::string &bench,
              const std::vector<SweepCell> &cells)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0x1f;
        h *= 1099511628211ull;
    };
    mix(bench);
    mix(std::to_string(cells.size()));
    for (const SweepCell &c : cells)
        mix(cellConfigHash(c));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace

const char *
buildGitDescribe()
{
#ifdef PERSPECTIVE_GIT_DESCRIBE
    return PERSPECTIVE_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

unsigned
SweepOptions::effectiveJobs() const
{
    return jobs == 0 ? ThreadPool::defaultThreads() : jobs;
}

SweepOptions
parseSweepArgs(const std::string &bench_name, int argc, char **argv)
{
    SweepOptions opts;
    opts.benchName = bench_name;

    if (const char *env = std::getenv("PERSPECTIVE_JOBS"))
        opts.jobs = parseJobs(env, "PERSPECTIVE_JOBS");
    if (const char *env = std::getenv("PERSPECTIVE_BENCH_JSON"))
        opts.jsonPath = env;
    if (const char *env = std::getenv("PERSPECTIVE_TRACE_OUT"))
        opts.tracePath = env;
    if (const char *env = std::getenv("PERSPECTIVE_CACHE_DIR"))
        opts.cacheDir = env;
    if (const char *env = std::getenv("PERSPECTIVE_SHARD"))
        parseShard(env, "PERSPECTIVE_SHARD", opts);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             bench_name.c_str(), flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            opts.jobs = parseJobs(value("--jobs"), "--jobs");
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = parseJobs(arg.substr(7), "--jobs");
        } else if (arg == "--json") {
            opts.jsonPath = value("--json");
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.jsonPath = arg.substr(7);
        } else if (arg == "--trace-out") {
            opts.tracePath = value("--trace-out");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opts.tracePath = arg.substr(12);
        } else if (arg == "--cache-dir") {
            opts.cacheDir = value("--cache-dir");
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            opts.cacheDir = arg.substr(12);
        } else if (arg == "--no-cache") {
            opts.noCache = true;
        } else if (arg == "--shard") {
            parseShard(value("--shard"), "--shard", opts);
        } else if (arg.rfind("--shard=", 0) == 0) {
            parseShard(arg.substr(8), "--shard", opts);
        } else if (arg == "--fleet") {
            opts.fleetWorkers = parseJobs(value("--fleet"), "--fleet");
        } else if (arg.rfind("--fleet=", 0) == 0) {
            opts.fleetWorkers = parseJobs(arg.substr(8), "--fleet");
        } else if (arg == "--fleet-socket") {
            opts.fleetSocket = value("--fleet-socket");
        } else if (arg.rfind("--fleet-socket=", 0) == 0) {
            opts.fleetSocket = arg.substr(15);
        } else if (arg == "--connect") {
            opts.connectPath = value("--connect");
        } else if (arg.rfind("--connect=", 0) == 0) {
            opts.connectPath = arg.substr(10);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--jobs N] [--json PATH] "
                "[--trace-out PATH]\n"
                "       [--cache-dir PATH] [--no-cache] "
                "[--shard K/N]\n"
                "  --jobs N         worker threads for the sweep "
                "grid\n"
                "                   (default: hardware concurrency;\n"
                "                   env PERSPECTIVE_JOBS)\n"
                "  --json PATH      emit all sweep results as JSON\n"
                "                   (env PERSPECTIVE_BENCH_JSON)\n"
                "  --trace-out PATH emit a Chrome trace_event JSON\n"
                "                   (chrome://tracing, Perfetto; env\n"
                "                   PERSPECTIVE_TRACE_OUT)\n"
                "  --cache-dir PATH persistent cell result cache:\n"
                "                   previously simulated cells are\n"
                "                   served from disk (env\n"
                "                   PERSPECTIVE_CACHE_DIR)\n"
                "  --no-cache       ignore any configured cache dir\n"
                "  --shard K/N      run only shard K of N (1-based);\n"
                "                   recombine the emitted JSONs with\n"
                "                   bench_report --merge (env\n"
                "                   PERSPECTIVE_SHARD)\n"
                "  --fleet N        run as a fleet coordinator:\n"
                "                   spawn N worker copies of this\n"
                "                   binary and dispatch cells to\n"
                "                   idle workers (work stealing)\n"
                "  --fleet-socket PATH\n"
                "                   coordinator listen socket (with\n"
                "                   --fleet, or alone to serve only\n"
                "                   externally attached workers)\n"
                "  --connect PATH   run as a fleet worker attached\n"
                "                   to the coordinator at PATH\n",
                bench_name.c_str());
            std::exit(0);
        } else {
            std::fprintf(stderr,
                         "%s: unknown argument '%s' "
                         "(try --help)\n",
                         bench_name.c_str(), arg.c_str());
            std::exit(2);
        }
    }

    if (opts.fleetCoordinator() && opts.fleetWorker()) {
        std::fprintf(stderr,
                     "%s: --fleet/--fleet-socket and --connect are "
                     "mutually exclusive\n",
                     bench_name.c_str());
        std::exit(2);
    }
    if ((opts.fleetCoordinator() || opts.fleetWorker()) &&
        opts.sharded()) {
        std::fprintf(stderr,
                     "%s: fleet mode and --shard are mutually "
                     "exclusive (the fleet already partitions the "
                     "grid dynamically)\n",
                     bench_name.c_str());
        std::exit(2);
    }
    if (opts.fleetCoordinator()) {
        // Workers re-run this very binary: same main, same grid.
        // They need none of our flags — outputs, cache and sharding
        // are coordinator-owned, and the fleet flags must not
        // recurse — so the spawn command is just the binary.
        char exe[4096];
        ssize_t n =
            ::readlink("/proc/self/exe", exe, sizeof exe - 1);
        if (n > 0) {
            exe[n] = '\0';
            opts.workerArgv = {exe};
        } else if (argc > 0) {
            opts.workerArgv = {argv[0]};
        }
    }
    return opts;
}

unsigned
shardOf(const std::string &configHash, unsigned shardCount)
{
    if (shardCount <= 1)
        return 0;
    // The config hash is already a uniform 64-bit FNV-1a rendered as
    // hex; re-mix it so the shard does not depend on only the low
    // bits surviving the modulo.
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : configHash) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return static_cast<unsigned>(h % shardCount);
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts))
{
    if (opts_.fleetWorker()) {
        // A fleet worker owns no outputs: the coordinator emits the
        // sweep JSON/trace and alone touches the cache directory
        // (DESIGN §5.7). Clearing here also neutralizes inherited
        // PERSPECTIVE_BENCH_JSON / PERSPECTIVE_CACHE_DIR environment
        // from the coordinator that spawned us.
        opts_.jsonPath.clear();
        opts_.tracePath.clear();
        opts_.cacheDir.clear();
        opts_.noCache = true;
        opts_.jobs = 1;
    } else if (opts_.fleetCoordinator()) {
        // The coordinator only dispatches; simulation happens in the
        // workers, so its own pool stays inline.
        opts_.jobs = 1;
    }

    if (!opts_.jsonPath.empty())
        probeWritable(opts_.jsonPath, "--json");
    if (!opts_.tracePath.empty()) {
        probeWritable(opts_.tracePath, "--trace-out");
        traceLog_ = std::make_unique<sim::trace::EventLog>();
        sim::trace::setEventLog(traceLog_.get());
    }

    cache_ = std::make_unique<CellCache>(
        opts_.noCache ? std::string() : opts_.cacheDir);

    // jobs == 1 runs inline on the calling thread (pool of 0).
    unsigned n = opts_.effectiveJobs();
    pool_ = std::make_unique<ThreadPool>(n <= 1 ? 0 : n);
    workerBusy_.assign(std::max(1u, n), 0.0);

    if (opts_.fleetCoordinator()) {
        FleetCoordinator::Options fo;
        fo.spawnWorkers = opts_.fleetWorkers;
        fo.socketPath = opts_.fleetSocket;
        fo.workerArgv = opts_.workerArgv;
        fo.benchName = opts_.benchName;
        fleet_ = std::make_unique<FleetCoordinator>(std::move(fo));
    } else if (opts_.fleetWorker()) {
        fleetClient_ =
            std::make_unique<FleetWorker>(opts_.connectPath);
    }
}

SweepRunner::~SweepRunner()
{
    // Detach our sink so late pipelines never dangle into freed
    // memory; leave foreign sinks (another runner's) alone.
    if (traceLog_ && sim::trace::eventLog() == traceLog_.get())
        sim::trace::setEventLog(nullptr);
}

std::vector<CellResult>
SweepRunner::run(const std::vector<SweepCell> &cells)
{
    if (fleetClient_)
        return runAsFleetWorker(cells);

    auto t0 = Clock::now();

    std::vector<CellResult> out(cells.size());

    /** A cell this process must actually simulate (or, as a fleet
     * coordinator, dispatch). */
    struct Pending
    {
        std::size_t idx = 0;
        std::string hash;
        ExecMode mode = ExecMode::Detailed;
        double weight = 0;     ///< work-size heuristic units
        double measured = -1;  ///< cached wall seconds; < 0 = unseen
    };
    std::vector<Pending> pending;
    pending.reserve(cells.size());

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        CellResult &slot = out[i];
        slot.workload = cell.profile.name;
        slot.scheme = workloads::schemeName(cell.scheme);
        slot.seed = cell.seed;
        slot.iterations = cell.iterations;
        slot.warmup = cell.warmup;
        slot.sampling = cell.sampling;
        slot.tags = cell.tags;
        slot.gridIndex = nextGridIndex_++;

        std::string hash = cellConfigHash(cell);
        if (opts_.sharded() && shardOf(hash, opts_.shardCount) !=
                                   opts_.shardIndex - 1) {
            slot.skipped = true;
            ++skippedCells_;
            continue;
        }
        // In fleet mode this lookup runs only here, in the
        // coordinator: workers never see the cache directory, so
        // hits are answered centrally and cannot race worker writes.
        if (auto hit = cache_->load(hash)) {
            std::uint64_t gi = slot.gridIndex;
            slot = cellFromCachedJson(*hit);
            slot.gridIndex = gi;
            ++cachedCells_;
            continue;
        }
        Pending p;
        p.idx = i;
        p.hash = std::move(hash);
        p.mode = cell.sampling.enabled ? ExecMode::Sampled
                                       : ExecMode::Detailed;
        p.weight = workloads::estimatedRequestWeight(cell.profile) *
                   (cell.iterations + cell.warmup + 1.0);
        if (auto cost = cache_->loadCost(p.hash, p.mode))
            p.measured = *cost;
        pending.push_back(std::move(p));
    }

    // Cost-aware schedule: longest-estimated-first (classic LPT)
    // trims the makespan tail a grid-order submission leaves when a
    // long cell lands last. Measured costs are seconds; heuristic
    // weights are calibrated into seconds against whatever measured
    // cells this batch has, so the two sort comparably. The
    // calibration is per execution mode: sampled runs ~9x faster
    // than detailed (DESIGN §5.8), so one shared scale would leave
    // every unseen cell of a minority mode badly mis-estimated. A
    // mode with no measurements in this batch borrows the measured
    // lane's scale through that nominal speed ratio. The *output*
    // stays in deterministic grid order regardless (slots are fixed).
    constexpr int kModes = 2;
    constexpr double kModeSpeedup[kModes] = {1.0, 9.0};
    double mSecs[kModes] = {0, 0}, mWeight[kModes] = {0, 0};
    for (const Pending &p : pending) {
        if (p.measured >= 0) {
            mSecs[static_cast<int>(p.mode)] += p.measured;
            mWeight[static_cast<int>(p.mode)] += p.weight;
        }
    }
    double scale[kModes];
    for (int m = 0; m < kModes; ++m)
        scale[m] = (mWeight[m] > 0 && mSecs[m] > 0)
                       ? mSecs[m] / mWeight[m]
                       : -1;
    // Normalize any measured lane to a detailed-equivalent scale and
    // fill the unmeasured lanes from it (no lane measured: unit).
    double base = 1.0;
    for (int m = 0; m < kModes; ++m)
        if (scale[m] >= 0) {
            base = scale[m] * kModeSpeedup[m];
            break;
        }
    for (int m = 0; m < kModes; ++m)
        if (scale[m] < 0)
            scale[m] = base / kModeSpeedup[m];
    auto keyOf = [&scale](const Pending &p) {
        return p.measured >= 0
                   ? p.measured
                   : p.weight * scale[static_cast<int>(p.mode)];
    };
    std::stable_sort(pending.begin(), pending.end(),
                     [&](const Pending &a, const Pending &b) {
                         return keyOf(a) > keyOf(b);
                     });

    const bool persist = cache_->persistent();
    const unsigned jobsNow = jobs();
    if (fleet_) {
        // Coordinator path: hand the LPT-ordered queue to the fleet;
        // idle workers pull cells one at a time. Results land in
        // their grid-indexed slots as they arrive, so assembly order
        // is independent of which worker stole what.
        std::vector<std::size_t> queue;
        std::vector<double> qcosts;
        std::map<std::size_t, const Pending *> byIdx;
        queue.reserve(pending.size());
        qcosts.reserve(pending.size());
        for (const Pending &p : pending) {
            queue.push_back(p.idx);
            qcosts.push_back(keyOf(p));
            byIdx[p.idx] = &p;
        }
        if (!queue.empty())
            fleet_->runBatch(
                batch_, batchGridHash(opts_.benchName, cells), queue,
                qcosts,
                [&](std::size_t idx, unsigned workerId,
                    const Json &cell) {
                    CellResult &slot = out[idx];
                    const std::uint64_t gi = slot.gridIndex;
                    slot = cellFromCachedJson(cell);
                    slot.cached = false; // fresh; raw rides along
                    slot.gridIndex = gi;
                    slot.worker = workerId;
                    const Pending &p = *byIdx.at(idx);
                    // Central cost + cache writes: the cache-
                    // ownership rule (workers never touch the dir).
                    cache_->storeCost(p.hash, p.mode,
                                      slot.wallSeconds);
                    if (persist && slot.ok)
                        cache_->store(p.hash, cell);
                });
    } else {
        for (const Pending &p : pending) {
            const SweepCell &cell = cells[p.idx];
            CellResult &slot = out[p.idx];
            CellCache *cache = cache_.get();
            ThreadPool *pool = pool_.get();
            std::string hash = p.hash;
            const ExecMode mode = p.mode;
            pool_->submit([&cell, &slot, cache, pool,
                           hash = std::move(hash), mode, persist,
                           jobsNow] {
                executeCell(cell, slot);
                // Lane attribution must be against *this* pool:
                // under nesting (a fleet worker's inline pool inside
                // another binary's pool thread) the static
                // currentWorker() would report the outer pool's lane.
                slot.worker = pool->currentLane();
                // Feed the scheduler (and, when persistent, the next
                // process) this cell's real cost; only successful
                // cells become servable cache entries.
                cache->storeCost(hash, mode, slot.wallSeconds);
                if (persist && slot.ok)
                    cache->store(hash, cellToJson(slot, jobsNow));
            });
        }
        pool_->wait();
    }
    ++batch_;

    // Schedule accounting: the ideal makespan is a perfectly
    // balanced distribution of the measured per-cell seconds across
    // the workers, bounded below by the longest single cell.
    unsigned nWorkers = std::max(1u, opts_.effectiveJobs());
    if (fleet_) {
        nWorkers = std::max(1u, fleet_->stats().workers);
        if (workerBusy_.size() < nWorkers)
            workerBusy_.resize(nWorkers, 0.0);
    }
    double total = 0, longest = 0;
    for (const Pending &p : pending) {
        const CellResult &r = out[p.idx];
        total += r.wallSeconds;
        longest = std::max(longest, r.wallSeconds);
        std::size_t lane = std::min<std::size_t>(
            r.worker, workerBusy_.size() - 1);
        workerBusy_[lane] += r.wallSeconds;
    }
    executedCells_ += pending.size();
    idealMakespan_ +=
        std::max(longest, total / static_cast<double>(nWorkers));

    if (fleet_ && !pending.empty()) {
        // What a static --shard split across this worker count would
        // have cost: per-cell measured walls summed per hash-shard,
        // slowest shard dominating. The fleet's measured makespan
        // divided by this is the work-stealing speedup bench_report
        // summarizes.
        std::vector<double> shardLoad(nWorkers, 0.0);
        for (const Pending &p : pending)
            shardLoad[shardOf(p.hash, nWorkers)] +=
                out[p.idx].wallSeconds;
        fleetStaticShardEst_ += *std::max_element(shardLoad.begin(),
                                                  shardLoad.end());
    }

    wallSeconds_ += secondsSince(t0);
    results_.insert(results_.end(), out.begin(), out.end());
    return out;
}

std::vector<CellResult>
SweepRunner::runAsFleetWorker(const std::vector<SweepCell> &cells)
{
    auto t0 = Clock::now();
    std::vector<CellResult> out(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        CellResult &slot = out[i];
        slot.workload = cell.profile.name;
        slot.scheme = workloads::schemeName(cell.scheme);
        slot.seed = cell.seed;
        slot.iterations = cell.iterations;
        slot.warmup = cell.warmup;
        slot.sampling = cell.sampling;
        slot.tags = cell.tags;
        slot.gridIndex = nextGridIndex_++;
        slot.skipped = true; // another worker's unless served here
    }

    const std::size_t served = fleetClient_->serveBatch(
        batch_++, batchGridHash(opts_.benchName, cells),
        opts_.benchName, [&](std::size_t idx) -> Json {
            CellResult &slot = out.at(idx);
            executeCell(cells.at(idx), slot);
            slot.skipped = false;
            return cellToJson(slot, 1);
        });
    executedCells_ += served;
    skippedCells_ += cells.size() - served;

    wallSeconds_ += secondsSince(t0);
    results_.insert(results_.end(), out.begin(), out.end());
    return out;
}

std::string
cellConfigHash(const CellResult &r)
{
    return hashCellConfig(r.workload, r.scheme, r.seed, r.iterations,
                          r.warmup, r.sampling, r.tags);
}

std::string
cellConfigHash(const SweepCell &c)
{
    return hashCellConfig(c.profile.name,
                          workloads::schemeName(c.scheme), c.seed,
                          c.iterations, c.warmup, c.sampling,
                          c.tags);
}

CellResult
cellFromCachedJson(const Json &cell)
{
    CellResult r;
    r.workload = cell.at("workload").asString();
    r.scheme = cell.at("scheme").asString();
    r.seed = uintField(cell, "seed");
    r.iterations = static_cast<unsigned>(uintField(cell, "iterations"));
    r.warmup = static_cast<unsigned>(uintField(cell, "warmup"));
    if (cell.contains("sampling")) {
        const Json &sj = cell.at("sampling");
        // The spec string round-trips the exact configuration
        // (including infinite windows, which a JSON number cannot
        // represent losslessly).
        if (sj.contains("spec"))
            r.sampling =
                sim::SamplingParams::parse(sj.at("spec").asString());
        workloads::SampledStats &ss = r.result.sampling;
        ss.active = sj.contains("active") && sj.at("active").asBool();
        ss.windows = uintField(sj, "windows");
        ss.windowInsts = uintField(sj, "window_insts");
        ss.warmingInsts = uintField(sj, "warming_insts");
        ss.periodInsts = uintField(sj, "period_insts");
        ss.cpiMean = doubleField(sj, "cpi_mean");
        ss.cpiCi95 = doubleField(sj, "cpi_ci95");
        ss.relError = doubleField(sj, "rel_error");
        ss.sampledInsts = uintField(sj, "sampled_insts");
        ss.measuredCycles = uintField(sj, "measured_cycles");
    }
    if (cell.contains("tags"))
        for (const auto &[k, v] : cell.at("tags").asObject())
            r.tags[k] = v.asString();
    r.wallSeconds = doubleField(cell, "wall_seconds");
    r.ok = cell.at("ok").asBool();
    if (cell.contains("error"))
        r.error = cell.at("error").asString();

    workloads::RunResult &res = r.result;
    res.cycles = uintField(cell, "cycles");
    res.instructions = uintField(cell, "instructions");
    res.kernelInstructions = uintField(cell, "kernel_instructions");
    res.fences = uintField(cell, "fences");
    res.isvFences = uintField(cell, "isv_fences");
    res.dsvFences = uintField(cell, "dsv_fences");
    res.isvCacheHitRate = doubleField(cell, "isv_cache_hit_rate");
    res.dsvCacheHitRate = doubleField(cell, "dsv_cache_hit_rate");
    if (cell.contains("stats"))
        for (const auto &[name, v] : cell.at("stats").asObject())
            res.stats.inc(name, v.asUint());
    if (cell.contains("leakage")) {
        const Json &lj = cell.at("leakage");
        sim::LeakageSummary &lk = res.leakage;
        lk.secretLoads = uintField(lj, "secret_loads");
        lk.bytesAtRisk = uintField(lj, "bytes_at_risk");
        lk.transmissions = uintField(lj, "transmissions");
        lk.bytesTransmitted = uintField(lj, "bytes_transmitted");
        lk.taintOverflows = uintField(lj, "taint_overflows");
        if (lj.contains("channels")) {
            const Json &cj = lj.at("channels");
            lk.channelCacheInstall = uintField(cj, "cache_install");
            lk.channelTlbFill = uintField(cj, "tlb_fill");
        }
        if (lj.contains("windows")) {
            for (unsigned w = 1; w < sim::kNumLeakWindows; ++w) {
                const char *name =
                    sim::leakWindowName(static_cast<sim::LeakWindow>(w));
                if (!lj.at("windows").contains(name))
                    continue;
                const Json &wj = lj.at("windows").at(name);
                lk.windows[w].secretLoads = uintField(wj, "secret_loads");
                lk.windows[w].transmissions =
                    uintField(wj, "transmissions");
                lk.windows[w].bytesTransmitted =
                    uintField(wj, "bytes_transmitted");
            }
        }
        if (lj.contains("top_gadgets")) {
            for (const Json &gj : lj.at("top_gadgets").asArray()) {
                sim::LeakageSummary::Gadget g;
                g.pc = uintField(gj, "pc");
                g.funcName = gj.at("func").asString();
                g.entryName = gj.at("entry").asString();
                std::string wname = gj.at("window").asString();
                for (unsigned w = 0; w < sim::kNumLeakWindows; ++w)
                    if (wname ==
                        sim::leakWindowName(static_cast<sim::LeakWindow>(w)))
                        g.window = static_cast<sim::LeakWindow>(w);
                g.transmissions = uintField(gj, "transmissions");
                g.bytesTransmitted = uintField(gj, "bytes_transmitted");
                lk.topGadgets.push_back(std::move(g));
            }
        }
    }

    r.cached = true;
    r.raw = std::make_shared<Json>(cell);
    return r;
}

Json
cellToJson(const CellResult &r, unsigned jobs)
{
    if (r.raw) {
        // A raw-bearing cell re-emits its original JSON verbatim —
        // histograms, time series and provenance (config hash, git,
        // wall seconds, jobs) are the producing run's — plus its
        // position in the *current* grid. Cells served by the cell
        // cache carry the cached marker; a fleet result's raw is the
        // worker's fresh output and is emitted unmarked, exactly as
        // a single process would have emitted it.
        Json::Object o = r.raw->asObject();
        if (r.cached)
            o["cached"] = true;
        o["grid_index"] = r.gridIndex;
        return Json(std::move(o));
    }

    Json::Object o;
    o["workload"] = r.workload;
    o["scheme"] = r.scheme;
    o["seed"] = r.seed;
    o["iterations"] = r.iterations;
    o["warmup"] = r.warmup;
    o["wall_seconds"] = r.wallSeconds;
    o["ok"] = r.ok;
    o["grid_index"] = r.gridIndex;
    if (!r.ok)
        o["error"] = r.error;
    if (!r.tags.empty()) {
        Json::Object tags;
        for (const auto &[k, v] : r.tags)
            tags[k] = v;
        o["tags"] = std::move(tags);
    }

    Json::Object prov;
    prov["workload"] = r.workload;
    prov["scheme"] = r.scheme;
    prov["config_hash"] = cellConfigHash(r);
    prov["git"] = buildGitDescribe();
    prov["wall_seconds"] = r.wallSeconds;
    prov["jobs"] = jobs;
    o["provenance"] = std::move(prov);

    const workloads::RunResult &res = r.result;
    o["cycles"] = static_cast<std::uint64_t>(res.cycles);
    o["instructions"] = res.instructions;
    // Simulation throughput: measured (post-warmup) simulated
    // instructions per wall second, in millions. The denominator is
    // the whole cell (boot + warmup included), so this is end-to-end
    // harness throughput, not a pure inner-loop rate.
    o["mips"] = r.wallSeconds > 0
                    ? static_cast<double>(res.instructions) /
                          r.wallSeconds / 1e6
                    : 0.0;
    o["kernel_instructions"] = res.kernelInstructions;
    o["kernel_fraction"] = res.kernelFraction();
    o["fences"] = res.fences;
    o["isv_fences"] = res.isvFences;
    o["dsv_fences"] = res.dsvFences;
    o["isv_cache_hit_rate"] = res.isvCacheHitRate;
    o["dsv_cache_hit_rate"] = res.dsvCacheHitRate;

    // Sampled-simulation block (schema 5, DESIGN §5.8). Present only
    // for cells configured to sample; `active` distinguishes a real
    // extrapolated estimate from a degenerate run (e.g. an infinite
    // window) whose cycles stayed fully measured. Statistical cells
    // are not bit-comparable — bench_report --check refuses them and
    // --accuracy-baseline is the sanctioned comparison.
    if (r.sampling.enabled) {
        const workloads::SampledStats &ss = res.sampling;
        Json::Object sj;
        sj["spec"] = r.sampling.spec();
        sj["active"] = ss.active;
        sj["windows"] = ss.windows;
        sj["window_insts"] = ss.windowInsts;
        sj["warming_insts"] = ss.warmingInsts;
        sj["period_insts"] = ss.periodInsts;
        sj["cpi_mean"] = ss.cpiMean;
        sj["cpi_ci95"] = ss.cpiCi95;
        sj["rel_error"] = ss.relError;
        sj["sampled_insts"] = ss.sampledInsts;
        sj["measured_cycles"] = ss.measuredCycles;
        o["sampling"] = std::move(sj);
    }

    Json::Object stats;
    for (const auto &[name, value] : res.stats.all())
        stats[name] = value;
    o["stats"] = std::move(stats);

    Json::Object hists;
    for (const auto &[name, h] : res.stats.allHistograms()) {
        Json::Object hj;
        hj["count"] = h.count();
        hj["min"] = h.min();
        hj["max"] = h.max();
        hj["mean"] = h.mean();
        hj["p50"] = h.percentile(50);
        hj["p90"] = h.percentile(90);
        hj["p99"] = h.percentile(99);
        hists[name] = std::move(hj);
    }
    o["histograms"] = std::move(hists);

    Json::Object series;
    for (const auto &[name, ts] : res.stats.allTimeSeries()) {
        Json::Object sj;
        sj["interval"] = static_cast<std::uint64_t>(ts.interval());
        Json::Array cyc, val;
        cyc.reserve(ts.samples().size());
        val.reserve(ts.samples().size());
        for (const auto &[c, v] : ts.samples()) {
            cyc.emplace_back(static_cast<std::uint64_t>(c));
            val.emplace_back(v);
        }
        sj["cycle"] = std::move(cyc);
        sj["value"] = std::move(val);
        series[name] = std::move(sj);
    }
    o["timeseries"] = std::move(series);

    // Transient-leakage accounting (schema 4, DESIGN §5.6). Always
    // present — a zero block is an explicit "no leakage observed",
    // which the leak gates depend on.
    const sim::LeakageSummary &lk = res.leakage;
    Json::Object leak;
    leak["secret_loads"] = lk.secretLoads;
    leak["bytes_at_risk"] = lk.bytesAtRisk;
    leak["transmissions"] = lk.transmissions;
    leak["bytes_transmitted"] = lk.bytesTransmitted;
    leak["taint_overflows"] = lk.taintOverflows;
    Json::Object chan;
    chan["cache_install"] = lk.channelCacheInstall;
    chan["tlb_fill"] = lk.channelTlbFill;
    leak["channels"] = std::move(chan);
    Json::Object wins;
    for (unsigned w = 1; w < sim::kNumLeakWindows; ++w) {
        const auto &row = lk.windows[w];
        Json::Object wj;
        wj["secret_loads"] = row.secretLoads;
        wj["transmissions"] = row.transmissions;
        wj["bytes_transmitted"] = row.bytesTransmitted;
        wins[sim::leakWindowName(static_cast<sim::LeakWindow>(w))] =
            std::move(wj);
    }
    leak["windows"] = std::move(wins);
    Json::Array gadgets;
    for (const auto &g : lk.topGadgets) {
        Json::Object gj;
        gj["pc"] = static_cast<std::uint64_t>(g.pc);
        gj["func"] = g.funcName;
        gj["entry"] = g.entryName;
        gj["window"] = sim::leakWindowName(g.window);
        gj["transmissions"] = g.transmissions;
        gj["bytes_transmitted"] = g.bytesTransmitted;
        gadgets.emplace_back(std::move(gj));
    }
    leak["top_gadgets"] = std::move(gadgets);
    o["leakage"] = std::move(leak);
    return Json(std::move(o));
}

Json
SweepRunner::toJson() const
{
    Json::Object doc;
    doc["schema"] = std::uint64_t{5};
    doc["bench"] = opts_.benchName;
    doc["jobs"] = jobs();
    doc["git"] = buildGitDescribe();
    doc["wall_seconds"] = wallSeconds_;

    Json::Array cells;
    cells.reserve(results_.size());
    for (const CellResult &r : results_)
        if (!r.skipped)
            cells.push_back(cellToJson(r, jobs()));
    doc["cells"] = std::move(cells);

    CellCache::Stats cs = cache_->stats();
    Json::Object cacheJ;
    cacheJ["hits"] = cs.hits;
    cacheJ["misses"] = cs.misses;
    cacheJ["dir"] = cache_->dir();
    doc["cache"] = std::move(cacheJ);

    Json::Object shard;
    shard["index"] = opts_.shardIndex;
    shard["count"] = opts_.shardCount;
    shard["grid_cells"] = nextGridIndex_;
    doc["shard"] = std::move(shard);

    if (traceLog_) {
        // Event-log health: consumers must be able to tell a quiet
        // trace from a saturated one (satellite of DESIGN §5.6).
        Json::Object tr;
        tr["events"] = traceLog_->size();
        tr["dropped"] = traceLog_->dropped();
        Json::Array perLane;
        for (std::uint64_t d : traceLog_->droppedByLane())
            perLane.emplace_back(d);
        tr["dropped_by_lane"] = std::move(perLane);
        doc["trace"] = std::move(tr);
    }

    Json::Object sched;
    sched["policy"] = fleet_ ? "fleet-work-stealing" : "cost-aware";
    sched["makespan"] = wallSeconds_;
    sched["ideal_makespan"] = idealMakespan_;
    sched["executed"] = executedCells_;
    sched["cached"] = cachedCells_;
    sched["skipped"] = skippedCells_;
    Json::Array busy;
    busy.reserve(workerBusy_.size());
    for (double b : workerBusy_)
        busy.emplace_back(b);
    sched["worker_busy"] = std::move(busy);
    if (fleet_) {
        const FleetStats &fs = fleet_->stats();
        Json::Object fl;
        fl["workers"] = fs.workers;
        fl["steals"] = fs.steals;
        fl["stragglers_resent"] = fs.stragglersResent;
        Json::Array cpw;
        cpw.reserve(fs.cellsPerWorker.size());
        for (std::uint64_t c : fs.cellsPerWorker)
            cpw.emplace_back(c);
        fl["cells_per_worker"] = std::move(cpw);
        fl["static_shard_makespan_est"] = fleetStaticShardEst_;
        sched["fleet"] = std::move(fl);
    }
    doc["schedule"] = std::move(sched);

    return Json(std::move(doc));
}

bool
SweepRunner::emitJson() const
{
    if (opts_.jsonPath.empty())
        return true;
    std::ofstream os(opts_.jsonPath);
    if (!os) {
        std::fprintf(stderr, "sweep: cannot open '%s' for writing\n",
                     opts_.jsonPath.c_str());
        return false;
    }
    toJson().write(os, 2);
    os.put('\n');
    if (!os.flush()) {
        std::fprintf(stderr, "sweep: short write to '%s'\n",
                     opts_.jsonPath.c_str());
        return false;
    }
    std::printf("[sweep: %zu cells (%llu simulated, %llu cached, "
                "%llu skipped), %u jobs, %.2fs; results -> %s]\n",
                results_.size(),
                static_cast<unsigned long long>(executedCells_),
                static_cast<unsigned long long>(cachedCells_),
                static_cast<unsigned long long>(skippedCells_),
                jobs(), wallSeconds_, opts_.jsonPath.c_str());
    return true;
}

bool
SweepRunner::emitTrace() const
{
    if (opts_.tracePath.empty())
        return true;
    return writeChromeTrace(*traceLog_, opts_.tracePath);
}

bool
SweepRunner::emitOutputs() const
{
    bool json_ok = emitJson();
    bool trace_ok = emitTrace();
    return json_ok && trace_ok;
}

std::optional<Json>
mergeSweeps(const std::vector<Json> &shards,
            const std::vector<std::string> &names, std::string &error)
{
    auto fail = [&](std::string msg) {
        error = std::move(msg);
        return std::optional<Json>{};
    };
    auto nameOf = [&](std::size_t i) {
        return i < names.size() ? names[i]
                                : "shard " + std::to_string(i);
    };
    if (shards.empty())
        return fail("no shard files given");

    std::string bench, git, cacheDir;
    std::uint64_t shardCount = 0, gridCells = 0, jobsMax = 0;
    std::uint64_t hits = 0, misses = 0;
    double wallMax = 0;
    Json::Array shardWalls;
    std::set<std::uint64_t> shardSeen;
    std::map<std::uint64_t, const Json *> cellsByIndex;

    for (std::size_t i = 0; i < shards.size(); ++i) {
        const Json &doc = shards[i];
        try {
            if (uintField(doc, "schema") < 3 ||
                !doc.contains("shard"))
                return fail(nameOf(i) +
                            ": not a mergeable sweep JSON "
                            "(schema >= 3 with a shard block "
                            "required)");
            const Json &sh = doc.at("shard");
            std::uint64_t idx = sh.at("index").asUint();
            std::uint64_t cnt = sh.at("count").asUint();
            std::uint64_t grid = sh.at("grid_cells").asUint();
            if (i == 0) {
                bench = doc.at("bench").asString();
                git = doc.at("git").asString();
                shardCount = cnt;
                gridCells = grid;
            } else {
                if (doc.at("bench").asString() != bench)
                    return fail(nameOf(i) + ": bench '" +
                                doc.at("bench").asString() +
                                "' does not match '" + bench + "'");
                if (doc.at("git").asString() != git)
                    return fail(nameOf(i) + ": build '" +
                                doc.at("git").asString() +
                                "' does not match '" + git +
                                "' — shards must come from one "
                                "build");
                if (cnt != shardCount || grid != gridCells)
                    return fail(nameOf(i) +
                                ": shard layout mismatch (" +
                                std::to_string(cnt) + " shards over " +
                                std::to_string(grid) +
                                " cells vs " +
                                std::to_string(shardCount) +
                                " over " + std::to_string(gridCells) +
                                ")");
            }
            if (!shardSeen.insert(idx).second)
                return fail(nameOf(i) + ": duplicate shard " +
                            std::to_string(idx) + "/" +
                            std::to_string(shardCount));
            double w = doubleField(doc, "wall_seconds");
            wallMax = std::max(wallMax, w);
            shardWalls.emplace_back(w);
            jobsMax = std::max(jobsMax, uintField(doc, "jobs"));
            if (doc.contains("cache")) {
                const Json &c = doc.at("cache");
                hits += uintField(c, "hits");
                misses += uintField(c, "misses");
                if (cacheDir.empty() && c.contains("dir"))
                    cacheDir = c.at("dir").asString();
            }
            for (const Json &cell : doc.at("cells").asArray()) {
                if (!cell.contains("grid_index"))
                    return fail(nameOf(i) +
                                ": cell without grid_index");
                std::uint64_t gi = cell.at("grid_index").asUint();
                if (gi >= gridCells)
                    return fail(nameOf(i) + ": cell grid_index " +
                                std::to_string(gi) +
                                " out of range (grid has " +
                                std::to_string(gridCells) +
                                " cells)");
                if (!cellsByIndex.emplace(gi, &cell).second)
                    return fail("overlapping shards: cell "
                                "grid_index " +
                                std::to_string(gi) +
                                " appears in more than one input");
            }
        } catch (const std::exception &ex) {
            return fail(nameOf(i) + ": " + ex.what());
        }
    }

    if (shardSeen.size() != shardCount) {
        std::string missing;
        for (std::uint64_t k = 1; k <= shardCount; ++k)
            if (!shardSeen.count(k))
                missing += (missing.empty() ? "" : ", ") +
                           std::to_string(k);
        return fail("missing shard(s) " + missing + " of " +
                    std::to_string(shardCount));
    }
    if (cellsByIndex.size() != gridCells)
        return fail("incomplete merge: " +
                    std::to_string(cellsByIndex.size()) + " of " +
                    std::to_string(gridCells) + " cells present");

    Json::Object doc;
    doc["schema"] = std::uint64_t{5};
    doc["bench"] = bench;
    doc["jobs"] = jobsMax;
    doc["git"] = git;
    doc["wall_seconds"] = wallMax; // shards run concurrently
    doc["shard_wall_seconds"] = std::move(shardWalls);
    Json::Array mergedFrom;
    for (const std::string &n : names)
        mergedFrom.emplace_back(n);
    doc["merged_from"] = std::move(mergedFrom);

    Json::Object cacheJ;
    cacheJ["hits"] = hits;
    cacheJ["misses"] = misses;
    cacheJ["dir"] = cacheDir;
    doc["cache"] = std::move(cacheJ);

    Json::Object shard;
    shard["index"] = std::uint64_t{1};
    shard["count"] = std::uint64_t{1};
    shard["grid_cells"] = gridCells;
    doc["shard"] = std::move(shard);

    Json::Array cells;
    cells.reserve(cellsByIndex.size());
    for (const auto &[gi, cell] : cellsByIndex)
        cells.push_back(*cell); // std::map: ascending grid order
    doc["cells"] = std::move(cells);
    return Json(std::move(doc));
}

double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 0.0;
    double log_sum = 0;
    for (double r : ratios)
        log_sum += std::log(std::max(r, 1e-12));
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

} // namespace perspective::harness
