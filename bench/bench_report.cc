/**
 * @file
 * Sweep-result comparison and regression reporting: reads one or
 * more sweep JSON files (emitted by any bench's --json flag), prints
 * a per-file summary, and — given a baseline file — a per-cell delta
 * report on the deterministic metrics (cycles, instructions, fences,
 * and every counter of the cell's `stats` block, a key present on one
 * side only counting as a difference). Cells are matched by their
 * provenance config hash, so a reordered grid still lines up; a cell
 * without `provenance.config_hash` is a load error (exit 2).
 *
 *   bench_report out.json                       # summarize
 *   bench_report out.json --baseline base.json  # per-cell deltas
 *   bench_report out.json --baseline base.json --check
 *       # exit 1 if any delta is non-zero (CI regression gate;
 *       # two runs of the same build must agree exactly)
 *
 * Throughput is reported separately from the deterministic metrics:
 * every summary and delta row carries a MIPS column (simulated
 * instructions / cell wall seconds), and --perf-baseline gates on
 * aggregate throughput with a tolerance (--perf-threshold, default
 * 0.80) instead of exact equality, because wall clock is noisy where
 * cycle counts are not.
 *
 *   bench_report out.json --perf-baseline base.json
 *       # exit 1 if aggregate MIPS < 0.80x the baseline's
 *
 * Sampled sweeps (PERSPECTIVE_SAMPLE, DESIGN §5.8) are statistical:
 * --check refuses files containing sampled cells, and
 * --accuracy-baseline instead gates each input's per-scheme mean
 * overhead (geomean of cycles normalized to the unsafe scheme,
 * matched by workload+scheme) against an exact sweep within a
 * relative-error threshold (--accuracy-threshold, default 0.02):
 *
 *   bench_report sampled.json --accuracy-baseline exact.json
 *
 * A sampled cell whose `cpi_ci95`/`rel_error` is null (fewer than
 * two windows) has no error estimate; it is counted, never averaged
 * in as a precise 0.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/sweep.hh"

using perspective::harness::Json;

namespace
{

struct Cell
{
    std::string workload;
    std::string scheme;
    std::string key; ///< config hash (+ duplicate suffix)
    bool ok = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t fences = 0;
    /** Every counter of the cell's `stats` block (compared exactly). */
    std::map<std::string, std::uint64_t> stats;
    double wallSeconds = 0;
    double mips = 0; ///< instructions / wallSeconds / 1e6

    // Transient-leakage accounting (zero for pre-schema-4 files).
    std::uint64_t secretLoads = 0;
    std::uint64_t leakTransmissions = 0;
    std::uint64_t leakBytes = 0; ///< bytes_transmitted

    // Sampled-simulation block (schema 5). A sampled cell's cycles
    // are a statistical extrapolation: never bit-comparable, so
    // --check refuses files containing any; --accuracy-baseline is
    // the sanctioned comparison.
    bool sampled = false;
    std::uint64_t windows = 0;
    double cpiMean = 0;
    bool hasErrorEstimate = false; ///< false: null CI (< 2 windows)
    double cpiCi95 = 0;
    double relError = 0; ///< ci95 / mean on the CPI estimate
};

struct SweepFile
{
    std::string path;
    std::string bench;
    std::string git;
    double wallSeconds = 0;
    std::vector<Cell> cells;

    /**
     * Config-hash → cell index, built lazily on first use: summaries
     * never need it, and a baseline compared against several inputs
     * pays the build exactly once instead of once per compare().
     */
    const std::map<std::string, const Cell *> &
    byKey() const
    {
        if (byKey_.empty() && !cells.empty())
            for (const Cell &c : cells)
                byKey_[c.key] = &c;
        return byKey_;
    }

    // Fast-path telemetry summed over every cell's stats block
    // (zero when the file predates the counters).
    std::uint64_t gateChecks = 0;   ///< gate verdicts computed
    std::uint64_t gateElided = 0;   ///< blocked-load rechecks skipped
    std::uint64_t mruHits = 0;      ///< DSVMT-walk MRU granule hits
    std::uint64_t mruLookups = 0;   ///< DSVMT-walk lookups

    // Dynamic-update exposure: stale allows plus the transient-gap
    // histogram, aggregated count-weighted over the cells (the JSON
    // carries per-cell percentile summaries, not raw samples).
    std::uint64_t staleAllows = 0;
    std::uint64_t gapSamples = 0;
    double gapP50W = 0; ///< sum of per-cell p50 * count
    double gapP99W = 0; ///< sum of per-cell p99 * count

    // Sampled-simulation presence and aggregate precision (schema 5).
    std::uint64_t sampledCells = 0;
    std::uint64_t sampledWindows = 0;
    std::uint64_t noEstimateCells = 0; ///< sampled, null CI
    double relErrSum = 0; ///< sum of rel_error over estimated cells
    double relErrMax = 0;

    // Transient-leakage totals over all cells (schema 4).
    std::uint64_t secretLoads = 0;
    std::uint64_t bytesAtRisk = 0;
    std::uint64_t leakTransmissions = 0;
    std::uint64_t leakBytes = 0;

    // Structured event-log health (doc-level "trace" block).
    std::uint64_t traceDropped = 0;
    std::vector<std::uint64_t> traceDroppedByLane;

  private:
    mutable std::map<std::string, const Cell *> byKey_;
};

std::uint64_t
uintOr0(const Json &obj, const char *field)
{
    return obj.contains(field) && obj.at(field).isNumber()
               ? obj.at(field).asUint()
               : 0;
}

/** Load a sweep document; exits 2 when it cannot be read or a cell
 * carries no provenance config hash. */
SweepFile
loadSweep(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_report: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    Json doc = Json::parse(buf.str());

    SweepFile f;
    f.path = path;
    if (doc.contains("bench"))
        f.bench = doc.at("bench").asString();
    if (doc.contains("git"))
        f.git = doc.at("git").asString();
    if (doc.contains("wall_seconds"))
        f.wallSeconds = doc.at("wall_seconds").asDouble();
    // Duplicate configurations (the same cell run twice in one grid)
    // disambiguate by occurrence index, preserving grid order.
    std::map<std::string, unsigned> seen;
    for (const Json &cj : doc.at("cells").asArray()) {
        Cell c;
        c.workload = cj.at("workload").asString();
        c.scheme = cj.at("scheme").asString();
        c.ok = cj.at("ok").asBool();
        c.cycles = uintOr0(cj, "cycles");
        c.instructions = uintOr0(cj, "instructions");
        c.fences = uintOr0(cj, "fences");
        if (cj.contains("wall_seconds"))
            c.wallSeconds = cj.at("wall_seconds").asDouble();
        if (cj.contains("mips") && cj.at("mips").isNumber())
            c.mips = cj.at("mips").asDouble();
        if (!cj.contains("provenance") ||
            !cj.at("provenance").contains("config_hash")) {
            std::fprintf(stderr,
                         "bench_report: %s: cell %s/%s has no "
                         "provenance.config_hash to match it by\n",
                         path.c_str(), c.workload.c_str(),
                         c.scheme.c_str());
            std::exit(2);
        }
        const std::string &hash =
            cj.at("provenance").at("config_hash").asString();
        unsigned n = seen[hash]++;
        c.key = hash + "#" + std::to_string(n);
        if (cj.contains("stats")) {
            const Json &st = cj.at("stats");
            for (const auto &[name, v] : st.asObject())
                if (v.isNumber())
                    c.stats[name] = v.asUint();
            f.gateChecks += uintOr0(st, "gate.checks");
            f.gateElided += uintOr0(st, "gate.elided");
            f.mruHits += uintOr0(st, "dsvmt.mru.hits");
            f.mruLookups += uintOr0(st, "dsvmt.mru.lookups");
            f.staleAllows +=
                uintOr0(st, "perspective.revocation.stale_allows");
        }
        if (cj.contains("histograms") &&
            cj.at("histograms").contains("transient_gap_cycles")) {
            const Json &h =
                cj.at("histograms").at("transient_gap_cycles");
            std::uint64_t n = uintOr0(h, "count");
            f.gapSamples += n;
            if (n > 0) {
                f.gapP50W += h.at("p50").asDouble() *
                             static_cast<double>(n);
                f.gapP99W += h.at("p99").asDouble() *
                             static_cast<double>(n);
            }
        }
        if (cj.contains("sampling")) {
            const Json &sj = cj.at("sampling");
            c.sampled = true;
            c.windows = uintOr0(sj, "windows");
            if (sj.contains("cpi_mean"))
                c.cpiMean = sj.at("cpi_mean").asDouble();
            c.hasErrorEstimate = sj.contains("rel_error") &&
                                 !sj.at("rel_error").isNull();
            ++f.sampledCells;
            f.sampledWindows += c.windows;
            if (c.hasErrorEstimate) {
                c.cpiCi95 = sj.at("cpi_ci95").asDouble();
                c.relError = sj.at("rel_error").asDouble();
                f.relErrSum += c.relError;
                f.relErrMax = std::max(f.relErrMax, c.relError);
            } else {
                ++f.noEstimateCells;
            }
        }
        if (cj.contains("leakage")) {
            const Json &lj = cj.at("leakage");
            c.secretLoads = uintOr0(lj, "secret_loads");
            c.leakTransmissions = uintOr0(lj, "transmissions");
            c.leakBytes = uintOr0(lj, "bytes_transmitted");
            f.secretLoads += c.secretLoads;
            f.bytesAtRisk += uintOr0(lj, "bytes_at_risk");
            f.leakTransmissions += c.leakTransmissions;
            f.leakBytes += c.leakBytes;
        }
        f.cells.push_back(std::move(c));
    }
    if (doc.contains("trace")) {
        const Json &tj = doc.at("trace");
        f.traceDropped = uintOr0(tj, "dropped");
        if (tj.contains("dropped_by_lane"))
            for (const Json &d : tj.at("dropped_by_lane").asArray())
                f.traceDroppedByLane.push_back(d.asUint());
    }
    return f;
}

/** Aggregate throughput: total simulated instructions of the
 * successful cells over the sweep's wall-clock seconds, in millions
 * of instructions per second. 0 when the file carries no timing. */
double
aggregateMips(const SweepFile &f)
{
    if (f.wallSeconds <= 0)
        return 0;
    std::uint64_t instructions = 0;
    for (const Cell &c : f.cells)
        if (c.ok)
            instructions += c.instructions;
    return static_cast<double>(instructions) / f.wallSeconds / 1e6;
}

void
summarize(const SweepFile &f)
{
    std::uint64_t failed = 0;
    for (const Cell &c : f.cells)
        failed += c.ok ? 0 : 1;
    std::printf("%s: bench=%s git=%s cells=%zu failed=%llu "
                "wall=%.2fs mips=%.2f\n",
                f.path.c_str(), f.bench.c_str(),
                f.git.empty() ? "?" : f.git.c_str(),
                f.cells.size(),
                static_cast<unsigned long long>(failed),
                f.wallSeconds, aggregateMips(f));
    // Fast-path telemetry (absent from files predating the counters).
    if (f.gateChecks + f.gateElided > 0)
        std::printf("  gate re-evals: %llu checked, %llu elided "
                    "(%.1f%% elided)\n",
                    static_cast<unsigned long long>(f.gateChecks),
                    static_cast<unsigned long long>(f.gateElided),
                    100.0 * static_cast<double>(f.gateElided) /
                        static_cast<double>(f.gateChecks +
                                            f.gateElided));
    if (f.mruLookups > 0)
        std::printf("  dsvmt walk MRU: %llu/%llu hits (%.1f%%)\n",
                    static_cast<unsigned long long>(f.mruHits),
                    static_cast<unsigned long long>(f.mruLookups),
                    100.0 * static_cast<double>(f.mruHits) /
                        static_cast<double>(f.mruLookups));
    if (f.gapSamples > 0 || f.staleAllows > 0)
        std::printf("  transient gaps: %llu windows, p50~%.0f "
                    "p99~%.0f cycles (count-weighted); %llu stale "
                    "allows\n",
                    static_cast<unsigned long long>(f.gapSamples),
                    f.gapSamples
                        ? f.gapP50W / static_cast<double>(f.gapSamples)
                        : 0.0,
                    f.gapSamples
                        ? f.gapP99W / static_cast<double>(f.gapSamples)
                        : 0.0,
                    static_cast<unsigned long long>(f.staleAllows));
    if (f.sampledCells > 0) {
        std::uint64_t estimated = f.sampledCells - f.noEstimateCells;
        std::printf("  sampled: %llu cell(s), %llu detailed "
                    "window(s); ",
                    static_cast<unsigned long long>(f.sampledCells),
                    static_cast<unsigned long long>(f.sampledWindows));
        if (estimated > 0)
            std::printf("CPI 95%% CI rel. error avg %.2f%% max %.2f%% "
                        "over %llu cell(s)",
                        100.0 * f.relErrSum /
                            static_cast<double>(estimated),
                        100.0 * f.relErrMax,
                        static_cast<unsigned long long>(estimated));
        else
            std::printf("CPI 95%% CI rel. error -");
        std::printf(" (statistical — not bit-comparable)\n");
        if (f.noEstimateCells > 0)
            std::printf("  %llu of %llu sampled cells have no error "
                        "estimate (fewer than 2 windows)\n",
                        static_cast<unsigned long long>(
                            f.noEstimateCells),
                        static_cast<unsigned long long>(
                            f.sampledCells));
    }
    if (f.secretLoads > 0 || f.leakBytes > 0)
        std::printf("  leakage: %llu secret loads (%llu bytes at "
                    "risk), %llu transmissions, %llu bytes "
                    "transmitted\n",
                    static_cast<unsigned long long>(f.secretLoads),
                    static_cast<unsigned long long>(f.bytesAtRisk),
                    static_cast<unsigned long long>(
                        f.leakTransmissions),
                    static_cast<unsigned long long>(f.leakBytes));
    if (f.traceDropped > 0) {
        std::uint64_t worst = 0;
        for (std::uint64_t d : f.traceDroppedByLane)
            worst = std::max(worst, d);
        std::fprintf(stderr,
                     "bench_report: WARNING: %s: event trace dropped "
                     "%llu event(s) (worst lane: %llu) — it holds "
                     "only the events recorded before it filled\n",
                     f.path.c_str(),
                     static_cast<unsigned long long>(f.traceDropped),
                     static_cast<unsigned long long>(worst));
    }
}

/** Signed delta column: "+12345" / "0". */
std::string
delta(std::uint64_t now, std::uint64_t base)
{
    std::int64_t d = static_cast<std::int64_t>(now) -
                     static_cast<std::int64_t>(base);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+lld",
                  static_cast<long long>(d));
    return d == 0 ? "0" : buf;
}

/** Names of the `stats` counters that differ between @p now and
 * @p base, in name order; a counter present on one side only
 * differs. */
std::vector<std::string>
statDiffs(const Cell &now, const Cell &base)
{
    std::vector<std::string> out;
    for (const auto &[name, v] : now.stats) {
        auto it = base.stats.find(name);
        if (it == base.stats.end() || it->second != v)
            out.push_back(name);
    }
    for (const auto &[name, v] : base.stats)
        if (!now.stats.count(name))
            out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

/** "1234" or "absent" for counter @p name of @p c. */
std::string
statValue(const Cell &c, const std::string &name)
{
    auto it = c.stats.find(name);
    return it == c.stats.end() ? "absent" : std::to_string(it->second);
}

unsigned
compare(const SweepFile &now, const SweepFile &base, bool verbose)
{
    const auto &baseByKey = base.byKey();

    unsigned diffs = 0, unmatched = 0;
    std::printf("\n%-14s %-20s %14s %14s %10s %8s %8s\n", "workload",
                "scheme", "d(cycles)", "d(insts)", "d(fences)",
                "mips", "speedup");
    for (const Cell &c : now.cells) {
        auto it = baseByKey.find(c.key);
        if (it == baseByKey.end()) {
            ++unmatched;
            std::printf("%-14s %-20s %s\n", c.workload.c_str(),
                        c.scheme.c_str(),
                        "(no matching baseline cell)");
            continue;
        }
        const Cell &b = *it->second;
        std::vector<std::string> statDiff = statDiffs(c, b);
        bool same = c.cycles == b.cycles &&
                    c.instructions == b.instructions &&
                    c.fences == b.fences && statDiff.empty();
        if (!same)
            ++diffs;
        if (same && !verbose)
            continue;
        // Throughput is informational here: wall clock is noisy, so
        // it never counts toward --check (use --perf-baseline for a
        // tolerance-based gate).
        char speedup[16] = "-";
        if (b.mips > 0 && c.mips > 0)
            std::snprintf(speedup, sizeof speedup, "%.2fx",
                          c.mips / b.mips);
        std::printf("%-14s %-20s %14s %14s %10s %8.2f %8s\n",
                    c.workload.c_str(), c.scheme.c_str(),
                    delta(c.cycles, b.cycles).c_str(),
                    delta(c.instructions, b.instructions).c_str(),
                    delta(c.fences, b.fences).c_str(), c.mips,
                    speedup);
        // Name the first few differing counters (now vs baseline).
        constexpr std::size_t kShown = 3;
        for (std::size_t i = 0; i < statDiff.size() && i < kShown; ++i)
            std::printf("    stats.%s: %s vs %s\n",
                        statDiff[i].c_str(),
                        statValue(c, statDiff[i]).c_str(),
                        statValue(b, statDiff[i]).c_str());
        if (statDiff.size() > kShown)
            std::printf("    ... and %zu more differing counter(s)\n",
                        statDiff.size() - kShown);
    }
    std::printf("\n%u of %zu cells differ from baseline"
                " (%u unmatched)\n",
                diffs, now.cells.size(), unmatched);
    return diffs + unmatched;
}

/**
 * Aggregate-throughput gate: each input must sustain at least
 * @p threshold x the baseline's MIPS. Returns the number of files
 * that fail (missing timing on either side is a failure too — a
 * silent pass would mask a broken perf pipeline).
 */
unsigned
perfCompare(const std::vector<SweepFile> &inputs,
            const SweepFile &base, double threshold)
{
    double baseMips = aggregateMips(base);
    std::printf("\nperf baseline: %s mips=%.2f (threshold %.2fx "
                "=> require >= %.2f)\n",
                base.path.c_str(), baseMips, threshold,
                baseMips * threshold);
    unsigned failures = 0;
    for (const SweepFile &f : inputs) {
        double mips = aggregateMips(f);
        bool ok = baseMips > 0 && mips >= baseMips * threshold;
        if (!ok)
            ++failures;
        std::printf("  %-40s mips=%8.2f  %6.2fx  %s\n",
                    f.path.c_str(), mips,
                    baseMips > 0 ? mips / baseMips : 0.0,
                    ok ? "ok" : "FAIL");
    }
    return failures;
}

/**
 * Per-scheme overhead: geometric mean, over the workloads present,
 * of cycles(workload, scheme) / cycles(workload, "unsafe") within
 * the same file. The figure every results table in the paper is
 * built from, and the quantity the sampled-accuracy gate compares.
 */
std::map<std::string, double>
schemeOverheads(const SweepFile &f)
{
    // scheme -> workload -> cycles; duplicates (the same pair run
    // twice, e.g. simspeed's boot passes) keep the first occurrence.
    std::map<std::string, std::map<std::string, double>> cyc;
    for (const Cell &c : f.cells)
        if (c.ok && c.cycles > 0)
            cyc[c.scheme].emplace(c.workload,
                                  static_cast<double>(c.cycles));
    std::map<std::string, double> out;
    auto unsafeIt = cyc.find("unsafe");
    if (unsafeIt == cyc.end())
        return out;
    for (const auto &[scheme, byWorkload] : cyc) {
        if (scheme == "unsafe")
            continue;
        std::vector<double> ratios;
        for (const auto &[w, cycles] : byWorkload) {
            auto u = unsafeIt->second.find(w);
            if (u != unsafeIt->second.end() && u->second > 0)
                ratios.push_back(cycles / u->second);
        }
        if (!ratios.empty())
            out[scheme] = perspective::harness::geomean(ratios);
    }
    return out;
}

/**
 * Statistical-accuracy gate (--accuracy-baseline): every input's
 * per-scheme mean overhead must sit within @p threshold relative
 * error of the exact baseline's. Cells are matched by
 * (workload, scheme) — sampled and exact runs of the same cell hash
 * differently by design, so the config-hash matching of --baseline
 * cannot pair them. Returns the number of failing schemes across
 * all inputs.
 */
unsigned
accuracyCompare(const std::vector<SweepFile> &inputs,
                const SweepFile &base, double threshold)
{
    std::map<std::string, double> baseOv = schemeOverheads(base);
    std::printf("\naccuracy baseline: %s (threshold: rel. error "
                "<= %.2f%% on per-scheme mean overhead)\n",
                base.path.c_str(), 100.0 * threshold);
    if (baseOv.empty()) {
        std::fprintf(stderr,
                     "bench_report: accuracy baseline has no unsafe "
                     "reference cells — cannot compute overheads\n");
        return 1;
    }
    unsigned failures = 0;
    for (const SweepFile &f : inputs) {
        std::map<std::string, double> ov = schemeOverheads(f);
        // Mean CPI-CI relative error per scheme, from the sampled
        // cells themselves (the estimator's own precision claim,
        // printed beside the measured-against-exact error). Cells
        // without an estimate stay out; a scheme with none prints -.
        std::map<std::string, std::pair<double, unsigned>> ci;
        for (const Cell &c : f.cells)
            if (c.ok && c.sampled && c.hasErrorEstimate) {
                ci[c.scheme].first += c.relError;
                ci[c.scheme].second += 1;
            }
        std::printf("  %s:\n", f.path.c_str());
        std::printf("    %-20s %10s %10s %10s %10s  %s\n", "scheme",
                    "base ovh", "this ovh", "rel err", "avg ci95",
                    "verdict");
        for (const auto &[scheme, bo] : baseOv) {
            auto it = ov.find(scheme);
            if (it == ov.end()) {
                std::printf("    %-20s %10.4f %10s %10s %10s  %s\n",
                            scheme.c_str(), bo, "-", "-", "-",
                            "MISSING");
                ++failures;
                continue;
            }
            double rel = bo > 0 ? std::abs(it->second - bo) / bo : 0;
            bool ok = rel <= threshold;
            if (!ok)
                ++failures;
            auto cit = ci.find(scheme);
            char cibuf[16] = "-";
            if (cit != ci.end() && cit->second.second > 0)
                std::snprintf(cibuf, sizeof cibuf, "%9.2f%%",
                              100.0 * cit->second.first /
                                  cit->second.second);
            std::printf("    %-20s %10.4f %10.4f %9.2f%% %10s  %s\n",
                        scheme.c_str(), bo, it->second, 100.0 * rel,
                        cibuf, ok ? "ok" : "FAIL");
        }
    }
    return failures;
}

/** Split a comma-separated scheme list ("" => match everything). */
std::vector<std::string>
splitSchemes(const std::string &list)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : list) {
        if (ch == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/**
 * Hard leak gate: no successful cell (of the filtered schemes) may
 * report a single transmitted byte. Returns the number of offending
 * cells across all inputs.
 */
unsigned
leakGate(const std::vector<SweepFile> &inputs,
         const std::vector<std::string> &schemes)
{
    unsigned offenders = 0;
    std::uint64_t matched = 0;
    for (const SweepFile &f : inputs) {
        for (const Cell &c : f.cells) {
            if (!c.ok)
                continue;
            if (!schemes.empty() &&
                std::find(schemes.begin(), schemes.end(),
                          c.scheme) == schemes.end())
                continue;
            ++matched;
            if (c.leakBytes > 0) {
                ++offenders;
                std::fprintf(
                    stderr,
                    "bench_report: leak gate: %s: %s/%s "
                    "transmitted %llu byte(s) (%llu transmissions, "
                    "%llu secret loads)\n",
                    f.path.c_str(), c.workload.c_str(),
                    c.scheme.c_str(),
                    static_cast<unsigned long long>(c.leakBytes),
                    static_cast<unsigned long long>(
                        c.leakTransmissions),
                    static_cast<unsigned long long>(c.secretLoads));
            }
        }
    }
    std::printf("\nleak gate: %llu cell(s) checked, %u leaking\n",
                static_cast<unsigned long long>(matched), offenders);
    return offenders;
}

void
usage(int code)
{
    std::printf(
        "usage: bench_report FILE.json [FILE2.json ...]\n"
        "           [--baseline BASE.json] [--check]\n"
        "           [--verbose] [--perf-baseline BASE.json]\n"
        "           [--perf-threshold R]\n"
        "  --baseline F       per-cell delta of every input against"
        " F\n"
        "  --check            exit 1 if any cell differs from the\n"
        "                     baseline in cycles, instructions,\n"
        "                     fences or any stats counter\n"
        "                     (regression gate)\n"
        "  --verbose          list identical cells too\n"
        "  --perf-baseline F  exit 1 if any input's aggregate MIPS\n"
        "                     falls below R x F's (timing gate)\n"
        "  --perf-threshold R minimum allowed MIPS ratio "
        "(default 0.80)\n"
        "  --accuracy-baseline F\n"
        "                     gate sampled sweeps: exit 1 if any\n"
        "                     input's per-scheme mean overhead\n"
        "                     (geomean cycles vs unsafe, matched by\n"
        "                     workload+scheme) deviates from exact\n"
        "                     baseline F by more than the threshold\n"
        "  --accuracy-threshold R\n"
        "                     max allowed relative error "
        "(default 0.02)\n"
        "  --leak-gate[=S,..] exit 1 if any successful cell (of the\n"
        "                     listed schemes; all when omitted)\n"
        "                     reports transmitted leakage bytes\n"
        "  --expect-leak      exit 1 if NO input reports transmitted\n"
        "                     leakage bytes (gates the gate: a racy\n"
        "                     config must show a nonzero signal)\n");
    std::exit(code);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string baselinePath, perfBaselinePath;
    std::string accuracyBaselinePath;
    double accuracyThreshold = 0.02;
    double perfThreshold = 0.80;
    bool check = false, verbose = false;
    bool leakGateOn = false, expectLeak = false;
    std::vector<std::string> leakSchemes;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--baseline") {
            if (i + 1 >= argc)
                usage(2);
            baselinePath = argv[++i];
        } else if (arg.rfind("--baseline=", 0) == 0) {
            baselinePath = arg.substr(11);
        } else if (arg == "--perf-baseline") {
            if (i + 1 >= argc)
                usage(2);
            perfBaselinePath = argv[++i];
        } else if (arg.rfind("--perf-baseline=", 0) == 0) {
            perfBaselinePath = arg.substr(16);
        } else if (arg == "--perf-threshold") {
            if (i + 1 >= argc)
                usage(2);
            perfThreshold = std::atof(argv[++i]);
        } else if (arg.rfind("--perf-threshold=", 0) == 0) {
            perfThreshold = std::atof(arg.substr(17).c_str());
        } else if (arg == "--accuracy-baseline") {
            if (i + 1 >= argc)
                usage(2);
            accuracyBaselinePath = argv[++i];
        } else if (arg.rfind("--accuracy-baseline=", 0) == 0) {
            accuracyBaselinePath = arg.substr(20);
        } else if (arg == "--accuracy-threshold") {
            if (i + 1 >= argc)
                usage(2);
            accuracyThreshold = std::atof(argv[++i]);
        } else if (arg.rfind("--accuracy-threshold=", 0) == 0) {
            accuracyThreshold = std::atof(arg.substr(21).c_str());
        } else if (arg == "--leak-gate") {
            leakGateOn = true;
        } else if (arg.rfind("--leak-gate=", 0) == 0) {
            leakGateOn = true;
            leakSchemes = splitSchemes(arg.substr(12));
        } else if (arg == "--expect-leak") {
            expectLeak = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "bench_report: unknown argument '%s'\n",
                         arg.c_str());
            usage(2);
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty())
        usage(2);
    if (check && baselinePath.empty()) {
        std::fprintf(stderr,
                     "bench_report: --check needs --baseline\n");
        return 2;
    }

    if (perfThreshold <= 0) {
        std::fprintf(stderr,
                     "bench_report: --perf-threshold must be > 0\n");
        return 2;
    }
    if (accuracyThreshold <= 0) {
        std::fprintf(
            stderr,
            "bench_report: --accuracy-threshold must be > 0\n");
        return 2;
    }

    std::vector<SweepFile> files;
    files.reserve(inputs.size());
    for (const std::string &path : inputs)
        files.push_back(loadSweep(path));

    unsigned total_diffs = 0;
    for (const SweepFile &f : files)
        summarize(f);

    if (!baselinePath.empty()) {
        SweepFile base = loadSweep(baselinePath);
        std::printf("\nbaseline: ");
        summarize(base);
        if (check) {
            // Sampled cells are statistical estimates: two correct
            // runs legitimately differ, so a bit-exact gate over
            // them can only mislead (spurious green on lucky seeds,
            // spurious red otherwise). Refuse outright rather than
            // diff; --accuracy-baseline is the sanctioned gate.
            std::uint64_t sampled = base.sampledCells;
            for (const SweepFile &f : files)
                sampled += f.sampledCells;
            if (sampled > 0) {
                std::fprintf(
                    stderr,
                    "bench_report: FAIL — --check compares cells "
                    "bit-for-bit, but %llu cell(s) across the inputs "
                    "are sampled (statistical). Use "
                    "--accuracy-baseline with an exact sweep "
                    "instead.\n",
                    static_cast<unsigned long long>(sampled));
                return 1;
            }
        }
        for (const SweepFile &f : files)
            total_diffs += compare(f, base, verbose);
    }

    unsigned perf_failures = 0;
    if (!perfBaselinePath.empty())
        perf_failures = perfCompare(files, loadSweep(perfBaselinePath),
                                    perfThreshold);

    unsigned accuracy_failures = 0;
    if (!accuracyBaselinePath.empty())
        accuracy_failures =
            accuracyCompare(files, loadSweep(accuracyBaselinePath),
                            accuracyThreshold);

    unsigned leak_failures = 0;
    if (leakGateOn)
        leak_failures = leakGate(files, leakSchemes);
    if (expectLeak) {
        std::uint64_t total = 0;
        for (const SweepFile &f : files)
            total += f.leakBytes;
        if (total == 0) {
            std::fprintf(stderr,
                         "bench_report: FAIL — --expect-leak: no "
                         "input reports any transmitted leakage "
                         "bytes (the leak instrumentation may be "
                         "dead)\n");
            return 1;
        }
        std::printf("expect-leak: %llu byte(s) transmitted across "
                    "inputs — signal present\n",
                    static_cast<unsigned long long>(total));
    }
    if (leak_failures > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u cell(s) leaked "
                     "transmitted bytes\n",
                     leak_failures);
        return 1;
    }

    if (check && total_diffs > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u differing cell(s)\n",
                     total_diffs);
        return 1;
    }
    if (perf_failures > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u file(s) below the "
                     "performance threshold\n",
                     perf_failures);
        return 1;
    }
    if (accuracy_failures > 0) {
        std::fprintf(stderr,
                     "bench_report: FAIL — %u scheme(s) outside the "
                     "sampled-accuracy threshold\n",
                     accuracy_failures);
        return 1;
    }
    return 0;
}
