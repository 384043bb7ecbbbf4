/**
 * @file
 * Figure 9.2: LEBench normalized latency under FENCE and the three
 * Perspective flavors, normalized to UNSAFE; plus the Section 9.1
 * comparisons against DOM, STT, and deployed spot mitigations
 * (KPTI + retpoline), and Table 10.1's LEBench rows from the same
 * cells. Section 9.2's unknown-allocation cost compares the grid's
 * UNSAFE and PERSPECTIVE cells with one Perspective cell per workload
 * that lets speculation reach unknown allocations; the DSVMT probe
 * needs live access to the policy's tree and runs inline.
 *
 * The whole (workload x scheme) grid runs through the sweep runner:
 * `--jobs N` parallelizes the cells, `--json PATH` emits the raw
 * per-cell results.
 */

#include <cstdio>
#include <vector>

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

    const std::vector<WorkloadProfile> suite = lebenchSuite();
    SchemeGrid grid(sweep, suite);
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

    std::vector<SweepCell> allow_cells;
    for (const auto &w : suite) {
        SweepCell &c = allow_cells.emplace_back();
        c.profile = w;
        c.scheme = Scheme::Perspective;
        c.iterations = kIterations;
        c.warmup = kWarmup;
        c.perspective.blockUnknown = false;
    }
    const std::vector<CellResult> allow = sweep.run(allow_cells);

    banner("Section 9.2: Unknown allocations");
    std::printf("%-12s %-14s %-14s %-10s\n", "workload",
                "block-unknown", "allow-unknown", "delta");
    rule(54);
    double overhead_sum = 0;
    for (std::size_t row = 0; row < grid.rows(); ++row) {
        const CellResult &base = grid.at(row, Scheme::Unsafe);
        double unsafe_cycles = static_cast<double>(base.result.cycles);
        double with_block =
            grid.at(row, Scheme::Perspective).result.cycles / unsafe_cycles;
        double without = allow[row].result.cycles / unsafe_cycles;
        overhead_sum += with_block - without;
        std::printf("%-12s %12.3f %14.3f %9.1f%%\n",
                    base.workload.c_str(), with_block, without,
                    100.0 * (with_block - without));
    }
    std::printf("average share of overhead from unknown allocations:"
                " %.1f%% of execution\n",
                100.0 * overhead_sum / static_cast<double>(grid.rows()));
    std::printf("[paper: unknown allocations account for ~1.5%% of "
                "Perspective's LEBench overhead]\n");

    banner("Section 9.2: DSVMT characteristics");
    {
        Experiment e(httpdProfile(), Scheme::Perspective);
        e.run(5, 1);
        const auto &t = e.kernelState().task(e.mainPid());
        const auto &tree = e.perspectivePolicy()->dsvmtOf(t.domain);
        std::printf("httpd DSVMT: ~%zu bytes resident, walk depth %u "
                    "for a context page\n",
                    tree.memoryBytes(), tree.walkLevels(t.ctxPfn));
    }
    return sweep.emitOutputs() ? 0 : 1;
}
