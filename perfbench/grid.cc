/**
 * @file
 * Benchmark driver: runs one of the paper's figure grids through the
 * public harness::SweepRunner / workloads::Experiment API, pass after
 * pass, for a wall-time budget, and writes raw per-pass host timings
 * and per-cell result digests as JSON. It derives no metric itself:
 * perfbench/run.py builds it, computes every metric from its output
 * and checks the results (see perfbench/README.md).
 *
 *   perfbench_grid --workload lebench|apps|lebench-sampled
 *                  --seeds 42,7 --seconds 20 --trace 0|1 --out DIR
 *                  [--ref-seeds 42,7] [--setup-only]
 *
 * Every pass simulates the whole grid at one simulator seed. Each of
 * --seeds runs one pass, then passes repeat the first seed until the
 * next would end past --seconds, so every cell of that seed runs many
 * times. With --trace 1, untraced and traced passes alternate; a
 * traced pass drives each cell through the same public calls
 * Experiment::run makes and records a span around each of them.
 * Before every round of passes a clock probe runs (see
 * clockProbeSeconds), so run.py can convert pass seconds to host cycles.
 * --ref-seeds adds one untimed pass per seed in the other execution
 * mode (sampled for the exact grids, exact for the sampled one), the
 * reference the sampled-mode error is computed against.
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/sweep.hh"
#include "workloads/boot_cache.hh"
#include "workloads/experiment.hh"

extern char **environ;

namespace
{

using namespace perspective;
using harness::CellResult;
using harness::Json;
using harness::SweepCell;
using harness::SweepOptions;
using harness::SweepRunner;
using workloads::Experiment;
using workloads::Scheme;
using workloads::WorkloadProfile;

using Clock = std::chrono::steady_clock;

/** Monotonic clock in ns; the same clock (CLOCK_MONOTONIC) Python's
 * time.monotonic_ns() reads, so run.py can subtract its spawn time. */
std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * The host's clock rate moves with its load: a VM sharing the host
 * cannot see or set it, and a neighbour's load lowers it by 10-20% for
 * minutes at a time. A fixed chain of dependent integer operations,
 * which touches no memory, runs at a known number of cycles per step
 * (3 for the multiply, 1 each for the add, shift and xor on x86-64),
 * so timing it measures the clock the passes ran at.
 */
constexpr std::uint64_t kProbeSteps = 1'000'000;
constexpr std::uint64_t kProbeCyclesPerStep = 6;
constexpr unsigned kProbesPerRound = 5;

/** Seconds one run of the clock probe takes. */
double
clockProbeSeconds()
{
    std::uint64_t x = static_cast<std::uint64_t>(nowNs()) | 1;
    const std::int64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < kProbeSteps; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
        asm volatile("" : "+r"(x)); // keep the chain as written
    }
    const std::int64_t t1 = nowNs();
    asm volatile("" ::"r"(x));
    return static_cast<double>(t1 - t0) * 1e-9;
}

constexpr unsigned kIterations = 30;
constexpr unsigned kWarmup = 3;

/** Unsafe plus the eight schemes of bench_lebench / bench_apps. */
const std::vector<Scheme> kSchemes = {
    Scheme::Unsafe,     Scheme::Fence,
    Scheme::Dom,        Scheme::Stt,
    Scheme::InvisiSpec, Scheme::Spot,
    Scheme::PerspectiveStatic, Scheme::Perspective,
    Scheme::PerspectivePlusPlus};

struct Args
{
    std::string workload;
    std::vector<std::uint64_t> seeds;
    std::vector<std::uint64_t> refSeeds;
    double seconds = -1;
    bool trace = false;
    bool setupOnly = false;
    std::string outDir;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_grid: %s\n", msg.c_str());
    std::exit(2);
}

std::vector<std::uint64_t>
parseSeeds(const std::string &s)
{
    std::vector<std::uint64_t> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        std::string tok = s.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        char *end = nullptr;
        unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
        if (tok.empty() || *end != '\0')
            die("bad seed '" + tok + "'");
        out.push_back(v);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seeds")
            a.seeds = parseSeeds(value());
        else if (arg == "--ref-seeds")
            a.refSeeds = parseSeeds(value());
        else if (arg == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            a.trace = value() == "1";
        else if (arg == "--out")
            a.outDir = value();
        else if (arg == "--setup-only")
            a.setupOnly = true;
        else
            die("unknown argument '" + arg + "'");
    }
    if (a.workload.empty() || a.seeds.empty() || a.seconds < 0 ||
        a.outDir.empty())
        die("usage: --workload W --seeds S[,S..] --seconds N "
            "--trace 0|1 --out DIR [--ref-seeds S,..] [--setup-only]");
    return a;
}

/** The grid code reads PERSPECTIVE_* variables as defaults (fast-
 * forward, sampling, boot snapshot, trace flags); any of them would
 * silently measure a different program, so refuse to run. */
void
refuseEnvironment()
{
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "PERSPECTIVE_", 12) == 0)
            die(std::string("refusing to run with ") + *e +
                " set; unset every PERSPECTIVE_* variable");
}

/** The sampling spec of the sampled workload (the repo default,
 * spelled out so a changed default cannot move the benchmark). */
sim::SamplingParams
samplingSpec(bool enabled)
{
    sim::SamplingParams sp;
    sp.enabled = enabled;
    sp.windowInsts = 5'000;
    sp.warmingInsts = 10'000;
    sp.periodInsts = 400'000;
    sp.seed = 1;
    return sp;
}

struct Workload
{
    std::vector<WorkloadProfile> profiles;
    unsigned jobs = 1;
    bool sampled = false;
};

Workload
workloadOf(const std::string &name)
{
    if (name == "lebench")
        return {workloads::lebenchSuite(), 1, false};
    if (name == "apps")
        return {workloads::datacenterSuite(), 2, false};
    if (name == "lebench-sampled")
        return {workloads::lebenchSuite(), 1, true};
    die("unknown workload '" + name + "'");
}

std::vector<SweepCell>
makeGrid(const Workload &w, std::uint64_t seed, bool sampled)
{
    std::vector<SweepCell> cells;
    for (const WorkloadProfile &p : w.profiles)
        for (Scheme s : kSchemes) {
            SweepCell c;
            c.profile = p;
            c.scheme = s;
            c.seed = seed;
            c.iterations = kIterations;
            c.warmup = kWarmup;
            c.sampling = samplingSpec(sampled);
            cells.push_back(std::move(c));
        }
    return cells;
}

SweepOptions
sweepOptions(const Workload &w, const std::string &jsonPath)
{
    SweepOptions o;
    o.benchName = "perfbench";
    o.jobs = w.jobs;
    o.jsonPath = jsonPath;
    o.noCache = true;
    return o;
}

// ---- spans ------------------------------------------------------------

enum class SpanName : std::uint8_t
{
    Cell,
    Construct,
    Warmup,
    Measure,
    Collect,
    Prepare,
    Run,
    Finish,
    Grid,
    Emit,
};

const char *const kSpanNames[] = {
    "workloads.cell",    "workloads.construct", "workloads.warmup",
    "workloads.measure", "workloads.collect",   "kernel.prepare",
    "sim.run",           "kernel.finish",       "harness.grid",
    "harness.emit"};

struct Span
{
    SpanName name;
    std::int32_t parent; ///< index in the same log; -1 = root
    std::int64_t t0 = 0, t1 = 0;
    /** Simulated work of a sim.run span (Pipeline::run's result). */
    std::uint64_t insts = 0, cycles = 0;
};

/** Spans of one cell (or of one pass's harness calls), kept in memory
 * until the run ends. A log is written by one thread at a time. */
class SpanLog
{
  public:
    std::size_t
    open(SpanName n)
    {
        spans_.push_back({n, cur_, nowNs()});
        cur_ = static_cast<std::int32_t>(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t i, std::uint64_t insts = 0, std::uint64_t cycles = 0)
    {
        Span &s = spans_[i];
        s.t1 = nowNs();
        s.insts = insts;
        s.cycles = cycles;
        cur_ = s.parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::int32_t cur_ = -1;
};

/** Experiment's constructor takes a fast-forward flag ahead of the
 * sampling spec. Build through whichever signature the tree has, so
 * the benchmark keeps compiling when that flag is retired. */
template <typename E = Experiment>
std::unique_ptr<E>
makeExperiment(const SweepCell &c)
{
    if constexpr (std::is_constructible_v<E, const WorkloadProfile &,
                                          Scheme, std::uint64_t,
                                          sim::SamplingParams>)
        return std::make_unique<E>(c.profile, c.scheme, c.seed,
                                   c.sampling);
    else
        return std::make_unique<E>(c.profile, c.scheme, c.seed, false,
                                   c.sampling);
}

/** One request iteration, as Experiment::runRequestAs(mainPid) runs it,
 * with a span around each kernel and pipeline call. */
sim::RunResult
tracedRequest(Experiment &e, std::uint64_t userBuf, SpanLog &log)
{
    const kernel::Pid pid = e.mainPid();
    const kernel::Task &t = e.kernelState().task(pid);
    sim::Pipeline &cpu = e.pipeline();
    cpu.setAsid(t.asid);
    cpu.setKernelStackBase(t.stackTopVa);
    cpu.setReg(workloads::dreg::kUserBuf, userBuf);

    sim::RunResult total;
    for (const auto &inv : e.profile().request) {
        std::size_t s = log.open(SpanName::Prepare);
        auto prep = e.executor().prepare(pid, inv);
        log.close(s);
        for (auto [r, v] : prep.regs)
            cpu.setReg(r, v);
        cpu.setReg(workloads::dreg::kPadIters, e.profile().userPadIters);
        s = log.open(SpanName::Run);
        sim::RunResult r = cpu.run(e.drivers().driverFor(inv.sys));
        log.close(s, r.instructions, r.cycles);
        s = log.open(SpanName::Finish);
        e.executor().finish(pid, inv);
        log.close(s);
        total.cycles += r.cycles;
        total.instructions += r.instructions;
    }
    return total;
}

/** One cell, as Experiment::run(iterations, warmup) runs it. Its
 * results must equal the untraced pass's bit for bit; run.py checks. */
workloads::RunResult
tracedCell(const SweepCell &c, SpanLog &log)
{
    const std::size_t cell = log.open(SpanName::Cell);
    std::size_t s = log.open(SpanName::Construct);
    auto e = makeExperiment(c);
    log.close(s);
    sim::Pipeline &cpu = e->pipeline();
    const std::uint64_t userBuf =
        cpu.regValue(workloads::dreg::kUserBuf);

    s = log.open(SpanName::Warmup);
    for (unsigned i = 0; i < c.warmup; ++i)
        tracedRequest(*e, userBuf, log);
    log.close(s);

    s = log.open(SpanName::Measure);
    sim::StatSet &st = cpu.stats();
    st.clear();
    cpu.leakLedger().reset();
    cpu.resetSampling();
    core::PerspectivePolicy *pp = e->perspectivePolicy();
    if (pp) {
        pp->isvCache().resetAccounting();
        pp->dsvCache().resetAccounting();
        pp->resetDsvmtMruStats();
    }
    workloads::RunResult out;
    for (unsigned i = 0; i < c.iterations; ++i)
        out.cycles += tracedRequest(*e, userBuf, log).cycles;
    log.close(s);

    s = log.open(SpanName::Collect);
    out.instructions = st.get("committed");
    out.kernelInstructions = st.get("committed.kernel");
    out.fences = st.get("fences");
    out.isvFences = st.get("perspective.fence.isv");
    out.dsvFences = st.get("perspective.fence.dsv");
    if (pp) {
        out.isvCacheHitRate = pp->isvCache().hitRate();
        out.dsvCacheHitRate = pp->dsvCache().hitRate();
        st.inc("dsvmt.mru.hits", pp->dsvmtMruHits());
        st.inc("dsvmt.mru.lookups", pp->dsvmtMruLookups());
    }
    out.stats = st;
    out.leakage = cpu.leakLedger().summary();
    for (auto &g : out.leakage.topGadgets) {
        if (g.func != sim::kNoFunc)
            g.funcName = cpu.program().func(g.func).name;
        if (g.entryFunc != sim::kNoFunc)
            g.entryName = cpu.program().func(g.entryFunc).name;
    }
    const sim::SamplingParams &sp = cpu.params().sampling;
    if (cpu.sampledMode() &&
        sp.windowInsts != sim::SamplingParams::kInfiniteWindow) {
        if (cpu.sampler().windows() == 0)
            cpu.flushSampleWindow();
        const sim::SamplingEstimator &est = cpu.sampler();
        if (est.windows() > 0) {
            workloads::SampledStats &ss = out.sampling;
            ss.active = true;
            ss.windows = est.windows();
            ss.windowInsts = sp.windowInsts;
            ss.warmingInsts = sp.warmingInsts;
            ss.periodInsts = sp.periodInsts;
            ss.cpiMean = est.cpiMean();
            ss.cpiCi95 = est.cpiCi95();
            ss.relError = est.relError();
            ss.sampledInsts = est.sampledInsts();
            ss.measuredCycles = out.cycles;
            out.cycles = static_cast<sim::Cycle>(std::llround(
                est.cpiMean() * static_cast<double>(out.instructions)));
        }
    }
    log.close(s);
    log.close(cell);
    return out;
}

// ---- passes -----------------------------------------------------------

Json
digestsOf(const std::vector<CellResult> &results)
{
    Json::Array rows;
    for (const CellResult &r : results)
        rows.emplace_back(Json::Array{
            Json(static_cast<std::uint64_t>(r.result.cycles)),
            Json(r.result.instructions),
            Json(r.result.kernelInstructions), Json(r.result.fences),
            Json(r.ok)});
    return rows;
}

Json
cellSecondsOf(const std::vector<CellResult> &results)
{
    Json::Array secs;
    for (const CellResult &r : results)
        secs.emplace_back(r.wallSeconds);
    return secs;
}

std::uint64_t
instructionsOf(const std::vector<CellResult> &results)
{
    std::uint64_t n = 0;
    for (const CellResult &r : results)
        n += r.result.instructions;
    return n;
}

struct Pass
{
    Json::Object json;
    std::vector<SpanLog> cellSpans; ///< traced passes only
    SpanLog harnessSpans;
};

/** One grid pass: the timed window covers the sweep and its JSON
 * emission, as a user running a figure bench would wait for them. */
Pass
runPass(const Workload &w, std::uint64_t seed, bool traced,
        const std::string &jsonPath)
{
    Pass p;
    std::vector<SweepCell> cells = makeGrid(w, seed, w.sampled);
    if (traced) {
        p.cellSpans.resize(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i)
            cells[i].body = [log = &p.cellSpans[i]](const SweepCell &c) {
                return tracedCell(c, *log);
            };
    }
    SweepRunner runner(sweepOptions(w, jsonPath));

    const std::int64_t t0 = nowNs();
    std::size_t g = p.harnessSpans.open(SpanName::Grid);
    std::vector<CellResult> results = runner.run(cells);
    p.harnessSpans.close(g);
    std::size_t em = p.harnessSpans.open(SpanName::Emit);
    const bool emitted = runner.emitJson();
    p.harnessSpans.close(em);
    const std::int64_t t1 = nowNs();
    if (!emitted)
        die("cannot write " + jsonPath);

    p.json["seed"] = seed;
    p.json["traced"] = traced;
    p.json["wall_s"] = static_cast<double>(t1 - t0) * 1e-9;
    p.json["cell_s"] = cellSecondsOf(results);
    p.json["instructions"] = instructionsOf(results);
    p.json["digests"] = digestsOf(results);
    if (traced) {
        const Json sched = runner.toJson().at("schedule");
        p.json["makespan"] = sched.at("makespan").asDouble();
        p.json["ideal_makespan"] = sched.at("ideal_makespan").asDouble();
        Json::Array busy;
        for (const Json &b : sched.at("worker_busy").asArray())
            busy.emplace_back(b.asDouble());
        p.json["worker_busy"] = std::move(busy);
    }
    return p;
}

/** One untimed pass in the other execution mode; no emission. */
Json
referencePass(const Workload &w, std::uint64_t seed)
{
    SweepRunner runner(sweepOptions(w, ""));
    std::vector<CellResult> results =
        runner.run(makeGrid(w, seed, !w.sampled));
    Json::Object o;
    o["seed"] = seed;
    o["sampled"] = !w.sampled;
    o["digests"] = digestsOf(results);
    return o;
}

void
writeSpans(const std::string &path, const std::vector<Pass> &passes)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        die("cannot write " + path);
    std::fprintf(f, "pass\tcell\tname\tparent\tt0\tt1\tinsts\tcycles\n");
    auto dump = [f](std::size_t pass, long cell, const SpanLog &log) {
        for (const Span &s : log.spans())
            std::fprintf(f, "%zu\t%ld\t%s\t%d\t%lld\t%lld\t%llu\t%llu\n",
                         pass, cell, kSpanNames[static_cast<int>(s.name)], s.parent,
                         static_cast<long long>(s.t0),
                         static_cast<long long>(s.t1),
                         static_cast<unsigned long long>(s.insts),
                         static_cast<unsigned long long>(s.cycles));
    };
    for (std::size_t i = 0; i < passes.size(); ++i) {
        if (passes[i].cellSpans.empty())
            continue;
        dump(i, -1, passes[i].harnessSpans);
        for (std::size_t c = 0; c < passes[i].cellSpans.size(); ++c)
            dump(i, static_cast<long>(c), passes[i].cellSpans[c]);
    }
    if (std::fclose(f) != 0)
        die("short write to " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    refuseEnvironment();
    const Args args = parseArgs(argc, argv);
    const Workload w = workloadOf(args.workload);

    // Set-up: boot every seed's kernel image before the first cell, so
    // boot is billed to set-up rather than to the first cell's pass.
    workloads::BootImage::setSnapshotEnabled(true);
    Json::Array bootS;
    for (std::uint64_t seed : args.seeds) {
        const std::int64_t b0 = nowNs();
        (void)workloads::BootImage::forSeed(seed);
        bootS.emplace_back(static_cast<double>(nowNs() - b0) * 1e-9);
    }

    Json::Object doc;
    doc["workload"] = args.workload;
    doc["boot_s"] = std::move(bootS);
    doc["first_cell_ns"] = static_cast<std::uint64_t>(nowNs());

    if (!args.setupOnly) {
        Json::Object config;
        config["jobs"] = w.jobs;
        config["iterations"] = kIterations;
        config["warmup"] = kWarmup;
        config["sampling"] = samplingSpec(w.sampled).spec();
        config["cell_cache"] = "off";
        config["boot_snapshot"] = workloads::BootImage::snapshotEnabled();
        doc["config"] = std::move(config);

        Json::Array cells;
        for (const SweepCell &c : makeGrid(w, args.seeds[0], w.sampled))
            cells.emplace_back(Json::Array{
                Json(c.profile.name),
                Json(workloads::schemeName(c.scheme))});
        doc["cells"] = std::move(cells);

        // Once every seed ran, stop before a round that would end past
        // the budget, so a slow host lengthens no run.
        std::vector<Pass> passes;
        Json::Array probeS;
        const std::int64_t start = nowNs();
        std::int64_t lastRound = 0;
        for (std::size_t round = 0;; ++round) {
            const std::int64_t r0 = nowNs();
            if (round >= args.seeds.size() &&
                static_cast<double>(r0 - start + lastRound) * 1e-9 >
                    args.seconds)
                break;
            for (unsigned i = 0; i < kProbesPerRound; ++i)
                probeS.emplace_back(clockProbeSeconds());
            const std::uint64_t seed =
                args.seeds[round < args.seeds.size() ? round : 0];
            const std::string json = args.outDir + "/sweep-" +
                                     std::to_string(seed) + ".json";
            if (!args.trace) {
                passes.push_back(runPass(w, seed, false, json));
            } else {
                // Alternate which kind goes first, so drift over the
                // run biases neither side of the trace-overhead ratio.
                const bool tracedFirst = round % 2 == 1;
                passes.push_back(runPass(w, seed, tracedFirst, json));
                passes.push_back(runPass(w, seed, !tracedFirst, json));
            }
            lastRound = nowNs() - r0;
        }

        struct rusage ru;
        getrusage(RUSAGE_SELF, &ru);
        doc["peak_rss_kb"] = static_cast<std::uint64_t>(ru.ru_maxrss);

        doc["probe_cycles"] = kProbeSteps * kProbeCyclesPerStep;
        doc["probe_s"] = std::move(probeS);

        Json::Array passJ;
        for (Pass &p : passes)
            passJ.emplace_back(std::move(p.json));
        doc["passes"] = std::move(passJ);
        if (args.trace)
            writeSpans(args.outDir + "/spans.tsv", passes);

        Json::Array refs;
        for (std::uint64_t seed : args.refSeeds)
            refs.push_back(referencePass(w, seed));
        doc["reference"] = std::move(refs);
    }

    const std::string path = args.outDir + "/result.json";
    std::ofstream os(path);
    Json(std::move(doc)).write(os);
    os.put('\n');
    if (!os.flush())
        die("cannot write " + path);
    return 0;
}
