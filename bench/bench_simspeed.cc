/**
 * @file
 * Simulator-speed microbenchmark: how many simulated instructions per
 * wall second does the harness itself sustain? Runs the full LEBench
 * (workload x scheme) grid twice — once with the boot-snapshot fast
 * path disabled (every cell boots its own kernel image) and once with
 * it enabled (one boot per seed, restored copy-on-write) — then once
 * more sampled (DESIGN §5.8), and reports per-cell and aggregate MIPS
 * plus the speedups.
 *
 * The per-cell "mips" figure also lands in the --json emission (see
 * cellToJson), so CI can archive throughput alongside the simulated
 * metrics and bench_report --perf-baseline can gate on it.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "harness/sweep.hh"
#include "workloads/boot_cache.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::bench;
using namespace perspective::harness;
using namespace perspective::workloads;

namespace
{

struct ModeTotals
{
    std::uint64_t instructions = 0;
    double wall = 0;

    double mips() const
    {
        return wall > 0
                   ? static_cast<double>(instructions) / wall / 1e6
                   : 0.0;
    }
};

ModeTotals
totalsOf(const std::vector<CellResult> &results, double wall)
{
    ModeTotals t;
    t.wall = wall;
    for (const CellResult &r : results)
        if (r.ok)
            t.instructions += r.result.instructions;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts = parseSweepArgs("bench_simspeed", argc, argv);
    SweepRunner sweep(opts);

    std::vector<Scheme> schemes = allSchemes();
    auto suite = lebenchSuite();

    auto makeGrid = [&](const char *boot_tag,
                        sim::SamplingParams sampling = {}) {
        std::vector<SweepCell> cells;
        for (const auto &w : suite) {
            for (Scheme s : schemes) {
                SweepCell c;
                c.profile = w;
                c.scheme = s;
                c.iterations = kIterations;
                c.warmup = kWarmup;
                c.sampling = sampling;
                c.tags["boot"] = boot_tag;
                c.tags["exec"] = sampling.enabled ? "sampled"
                                                  : "detailed";
                cells.push_back(std::move(c));
            }
        }
        return cells;
    };

    banner("Simulation throughput: LEBench grid, fresh boot vs "
           "shared boot snapshot");

    // Fresh mode: disable the cache so every Experiment builds and
    // lays out its own kernel image, like the pre-fast-path harness.
    BootImage::setSnapshotEnabled(false);
    BootImage::dropCache();
    double w0 = sweep.wallSeconds();
    auto fresh = sweep.run(makeGrid("fresh"));
    ModeTotals freshT = totalsOf(fresh, sweep.wallSeconds() - w0);

    BootImage::setSnapshotEnabled(true);
    double w1 = sweep.wallSeconds();
    auto shared = sweep.run(makeGrid("shared"));
    ModeTotals sharedT = totalsOf(shared, sweep.wallSeconds() - w1);

    // Third pass: sampled simulation (DESIGN §5.8) on the shared
    // boot. Statistical rather than bit-exact, so it runs in its own
    // runner emitting to a separate "-sampled" JSON — the main
    // emission stays the 342-cell exact grid CI compares
    // bit-identically.
    SweepOptions sopts = opts;
    sopts.tracePath.clear();
    if (!sopts.jsonPath.empty()) {
        std::string p = sopts.jsonPath;
        const std::string ext = ".json";
        if (p.size() > ext.size() &&
            p.compare(p.size() - ext.size(), ext.size(), ext) == 0)
            p.insert(p.size() - ext.size(), "-sampled");
        else
            p += "-sampled";
        sopts.jsonPath = p;
    }
    SweepRunner sampledSweep(sopts);
    sim::SamplingParams sp;
    sp.enabled = true;
    auto sampled = sampledSweep.run(makeGrid("shared", sp));
    ModeTotals sampledT = totalsOf(sampled, sampledSweep.wallSeconds());
    if (!sampledSweep.emitOutputs())
        return 1;

    // Per-cell MIPS table for the fast-path run.
    std::printf("%-14s", "benchmark");
    for (Scheme s : schemes)
        std::printf("%12s", schemeName(s));
    std::printf("\n");
    rule(14 + 12 * schemes.size());
    for (std::size_t row = 0; row < suite.size(); ++row) {
        std::printf("%-14s", suite[row].name.c_str());
        for (std::size_t k = 0; k < schemes.size(); ++k) {
            const CellResult &r = shared[row * schemes.size() + k];
            double mips =
                r.ok && r.wallSeconds > 0
                    ? static_cast<double>(r.result.instructions) /
                          r.wallSeconds / 1e6
                    : 0.0;
            std::printf("%12.2f", mips);
        }
        std::printf("\n");
    }
    rule(14 + 12 * schemes.size());

    std::printf("\n%-12s %10s %10s %10s\n", "boot mode", "cells",
                "wall (s)", "MIPS");
    std::printf("%-12s %10zu %10.2f %10.2f\n", "fresh",
                fresh.size(), freshT.wall, freshT.mips());
    std::printf("%-12s %10zu %10.2f %10.2f\n", "shared",
                shared.size(), sharedT.wall, sharedT.mips());
    std::printf("%-12s %10zu %10.2f %10.2f\n", "shared+smpl",
                sampled.size(), sampledT.wall, sampledT.mips());
    if (freshT.mips() > 0)
        std::printf("\nboot-snapshot speedup: %.2fx (aggregate "
                    "simulated MIPS, %u jobs)\n",
                    sharedT.mips() / freshT.mips(), sweep.jobs());
    if (sharedT.mips() > 0)
        std::printf("sampled speedup:       %.2fx over the shared-"
                    "boot detailed loop (statistical; bench_report "
                    "--accuracy-baseline gates the error)\n",
                    sampledT.mips() / sharedT.mips());

    return sweep.emitOutputs() ? 0 : 1;
}
