/**
 * @file
 * Figure 9.2: LEBench normalized latency under FENCE and the three
 * Perspective flavors, normalized to UNSAFE; plus the Section 9.1
 * comparisons against DOM, STT, and deployed spot mitigations
 * (KPTI + retpoline), and Table 10.1's LEBench rows from the same
 * cells.
 *
 * The whole (workload x scheme) grid runs through the sweep runner:
 * `--jobs N` parallelizes the cells, `--json PATH` emits the raw
 * per-cell results.
 */

#include <cstdio>

#include "scheme_grid.hh"

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

    SchemeGrid grid(sweep, lebenchSuite());
    grid.printNormalized(
        "benchmark", 14,
        [](const CellResult &base) {
            std::printf("%-14s", base.workload.c_str());
        },
        [](const CellResult &r, const CellResult &base) {
            return r.result.cycles /
                   static_cast<double>(base.result.cycles);
        },
        "geomean");

    std::printf(
        "\n[paper: FENCE avg 1.475 (select/poll up to 3.28),"
        " DOM 1.231, STT 1.037,\n"
        " spot (KPTI+retpoline) 1.145, P-STATIC 1.041, "
        "PERSPECTIVE 1.036, P++ 1.035]\n");

    printFenceTable(grid, "LEBench");
    return sweep.emitOutputs() ? 0 : 1;
}
