#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>

#include "chrome_trace.hh"

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

/** Run one cell (custom body or Experiment), capturing failure and
 * wall seconds into @p slot. */
void
executeCell(const SweepCell &cell, CellResult &slot)
{
    auto c0 = Clock::now();
    try {
        if (cell.body) {
            slot.result = cell.body(cell);
        } else {
            workloads::Experiment e(cell.profile, cell.scheme,
                                    cell.seed, cell.sampling,
                                    cell.perspective);
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
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--jobs N] [--json PATH] "
                "[--trace-out PATH]\n"
                "  --jobs N         worker threads for the sweep "
                "grid\n"
                "                   (default: hardware concurrency;\n"
                "                   env PERSPECTIVE_JOBS)\n"
                "  --json PATH      emit all sweep results as JSON\n"
                "                   (env PERSPECTIVE_BENCH_JSON)\n"
                "  --trace-out PATH emit a Chrome trace_event JSON\n"
                "                   (chrome://tracing, Perfetto; env\n"
                "                   PERSPECTIVE_TRACE_OUT)\n",
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

    return opts;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts))
{
    if (!opts_.jsonPath.empty())
        probeWritable(opts_.jsonPath, "--json");
    if (!opts_.tracePath.empty()) {
        probeWritable(opts_.tracePath, "--trace-out");
        traceLog_ = std::make_unique<sim::trace::EventLog>();
        sim::trace::setEventLog(traceLog_.get());
    }

    // jobs == 1 runs inline on the calling thread (pool of 0).
    unsigned n = opts_.effectiveJobs();
    pool_ = std::make_unique<ThreadPool>(n <= 1 ? 0 : n);
    workerBusy_.assign(std::max(1u, n), 0.0);
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
    auto t0 = Clock::now();

    std::vector<CellResult> out(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        CellResult &slot = out[i];
        slot = describeCell(cell);
        pool_->submit([this, &cell, &slot] {
            executeCell(cell, slot);
            slot.worker = pool_->currentLane();
        });
    }
    pool_->wait();

    // Schedule accounting: the ideal makespan is a perfectly
    // balanced distribution of the measured per-cell seconds across
    // the workers, bounded below by the longest single cell.
    const unsigned nWorkers = std::max(1u, opts_.effectiveJobs());
    double total = 0, longest = 0;
    for (const CellResult &r : out) {
        total += r.wallSeconds;
        longest = std::max(longest, r.wallSeconds);
        std::size_t lane = std::min<std::size_t>(
            r.worker, workerBusy_.size() - 1);
        workerBusy_[lane] += r.wallSeconds;
    }
    idealMakespan_ +=
        std::max(longest, total / static_cast<double>(nWorkers));

    wallSeconds_ += secondsSince(t0);
    results_.insert(results_.end(), out.begin(), out.end());
    return out;
}

CellResult
describeCell(const SweepCell &cell)
{
    CellResult r;
    r.workload = cell.profile.name;
    r.scheme = workloads::schemeName(cell.scheme);
    r.seed = cell.seed;
    r.iterations = cell.iterations;
    r.warmup = cell.warmup;
    r.sampling = cell.sampling;
    r.perspective = cell.perspective;
    r.tags = cell.tags;
    r.customBody = static_cast<bool>(cell.body);
    return r;
}

std::string
cellConfigHash(const CellResult &r)
{
    // FNV-1a 64 over every knob that determines the cell's outcome;
    // identical configurations hash identically across runs, hosts
    // and job counts, so bench_report can match cells by this key.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0x1f; // field separator
        h *= 1099511628211ull;
    };
    mix(r.workload);
    mix(r.scheme);
    mix(std::to_string(r.seed));
    mix(std::to_string(r.iterations));
    mix(std::to_string(r.warmup));
    mix(r.sampling.spec());
    core::forEachField(r.perspective, [&mix](const char *name, auto v) {
        mix(name);
        mix(std::to_string(v));
    });
    // A custom body is opaque to the runner: its tags name it.
    if (r.customBody)
        for (const auto &[k, v] : r.tags) {
            mix(k);
            mix(v);
        }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

Json
cellToJson(const CellResult &r, unsigned jobs)
{
    Json::Object o;
    o["workload"] = r.workload;
    o["scheme"] = r.scheme;
    o["seed"] = r.seed;
    o["iterations"] = r.iterations;
    o["warmup"] = r.warmup;
    o["wall_seconds"] = r.wallSeconds;
    o["ok"] = r.ok;
    if (!r.ok)
        o["error"] = r.error;
    if (!r.tags.empty()) {
        Json::Object tags;
        for (const auto &[k, v] : r.tags)
            tags[k] = v;
        o["tags"] = std::move(tags);
    }
    Json::Object pj;
    core::forEachField(r.perspective, [&pj](const char *name, auto v) {
        pj[name] = v;
    });
    o["perspective"] = std::move(pj);

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
        // Fewer than two windows give no variance: the CI is unknown,
        // not zero (schema 7).
        if (ss.windows < 2) {
            sj["cpi_ci95"] = nullptr;
            sj["rel_error"] = nullptr;
        } else {
            sj["cpi_ci95"] = ss.cpiCi95;
            sj["rel_error"] = ss.relError;
        }
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
    doc["schema"] = std::uint64_t{8};
    doc["bench"] = opts_.benchName;
    doc["jobs"] = jobs();
    doc["git"] = buildGitDescribe();
    doc["wall_seconds"] = wallSeconds_;

    Json::Array cells;
    cells.reserve(results_.size());
    for (const CellResult &r : results_)
        cells.push_back(cellToJson(r, jobs()));
    doc["cells"] = std::move(cells);

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
    sched["makespan"] = wallSeconds_;
    sched["ideal_makespan"] = idealMakespan_;
    sched["executed"] = results_.size();
    Json::Array busy;
    busy.reserve(workerBusy_.size());
    for (double b : workerBusy_)
        busy.emplace_back(b);
    sched["worker_busy"] = std::move(busy);
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
    std::printf("[sweep: %zu cells, %u jobs, %.2fs; results -> %s]\n",
                results_.size(), jobs(), wallSeconds_,
                opts_.jsonPath.c_str());
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
