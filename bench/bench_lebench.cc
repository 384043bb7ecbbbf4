/**
 * @file
 * Figure 9.2: LEBench normalized latency under FENCE and the three
 * Perspective flavors, normalized to UNSAFE; plus the Section 9.1
 * comparisons against DOM, STT, and deployed spot mitigations
 * (KPTI + retpoline).
 *
 * The whole (workload x scheme) grid runs through the sweep runner:
 * `--jobs N` parallelizes the cells, `--json PATH` emits the raw
 * per-cell results.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "common.hh"
#include "harness/sweep.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::bench;
using namespace perspective::harness;
using namespace perspective::workloads;

int
main(int argc, char **argv)
{
    SweepRunner sweep(parseSweepArgs("bench_lebench", argc, argv));

    banner("Figure 9.2: LEBench normalized latency (lower is better,"
           " 1.00 = UNSAFE)");

    std::vector<Scheme> schemes = {
        Scheme::Fence,           Scheme::Dom,
        Scheme::Stt,             Scheme::InvisiSpec,
        Scheme::Spot,            Scheme::PerspectiveStatic,
        Scheme::Perspective,     Scheme::PerspectivePlusPlus};

    // Grid: for every workload, the UNSAFE baseline followed by each
    // scheme, in row-major order.
    auto suite = lebenchSuite();
    std::vector<SweepCell> cells;
    for (const auto &w : suite) {
        for (std::size_t k = 0; k <= schemes.size(); ++k) {
            SweepCell c;
            c.profile = w;
            c.scheme = k == 0 ? Scheme::Unsafe : schemes[k - 1];
            c.iterations = kIterations;
            c.warmup = kWarmup;
            cells.push_back(std::move(c));
        }
    }
    auto results = sweep.run(cells);

    std::printf("%-14s", "benchmark");
    for (Scheme s : schemes)
        std::printf("%12s", schemeName(s));
    std::printf("\n");
    rule(14 + 12 * schemes.size());

    const std::size_t stride = 1 + schemes.size();
    std::map<Scheme, std::vector<double>> norms;
    for (std::size_t row = 0; row < suite.size(); ++row) {
        const CellResult &base = results[row * stride];
        double unsafe_cycles =
            static_cast<double>(base.result.cycles);
        std::printf("%-14s", base.workload.c_str());
        for (std::size_t k = 0; k < schemes.size(); ++k) {
            const CellResult &r = results[row * stride + 1 + k];
            double norm = r.result.cycles / unsafe_cycles;
            norms[schemes[k]].push_back(norm);
            std::printf("%12.3f", norm);
        }
        std::printf("\n");
    }

    rule(14 + 12 * schemes.size());
    std::printf("%-14s", "geomean");
    for (Scheme s : schemes)
        std::printf("%12.3f", geomean(norms[s]));
    std::printf("\n");

    std::printf(
        "\n[paper: FENCE avg 1.475 (select/poll up to 3.28),"
        " DOM 1.231, STT 1.037,\n"
        " spot (KPTI+retpoline) 1.145, P-STATIC 1.041, "
        "PERSPECTIVE 1.036, P++ 1.035]\n");
    return sweep.emitOutputs() ? 0 : 1;
}
