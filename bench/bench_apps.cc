/**
 * @file
 * Figure 9.3: datacenter application throughput (requests/second)
 * normalized to UNSAFE, including the hardware-scheme and spot-
 * mitigation comparison points of Section 9.1. RPS is computed from
 * measured cycles at the simulated 2 GHz clock. Table 10.1's
 * datacenter rows and Section 9.2's ISV/DSV cache hit rates read the
 * same cells.
 *
 * The (app x scheme) grid runs through the sweep runner: `--jobs N`
 * parallelizes the cells, `--json PATH` emits the raw results.
 */

#include <cstdio>

#include "scheme_grid.hh"

using namespace perspective;
using namespace perspective::bench;
using namespace perspective::harness;
using namespace perspective::workloads;

namespace
{

/** Requests per second at the simulated 2 GHz clock. */
double
rpsOf(const CellResult &r)
{
    return kIterations / (r.result.cycles / 2.0e9);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner sweep(parseSweepArgs("bench_apps", argc, argv));

    banner("Figure 9.3: Requests per second normalized to UNSAFE");

    SchemeGrid grid(sweep, datacenterSuite());
    grid.printNormalized(
        "app                RPS    OS%", 28,
        [](const CellResult &base) {
            std::printf("%-11s %10.0f %5.0f%%", base.workload.c_str(),
                        rpsOf(base),
                        100.0 * base.result.kernelFraction());
        },
        [](const CellResult &r, const CellResult &base) {
            return rpsOf(r) / rpsOf(base);
        },
        "geomean normalized RPS");

    std::printf("\n[paper: FENCE 0.943, DOM 0.983, STT 0.996, "
                "spot 0.95, Perspective flavors 0.987-0.988;\n"
                " OS-time fractions 50/65/65/53%% for "
                "httpd/nginx/memcached/redis]\n");

    printFenceTable(grid);

    banner("Section 9.2: Hardware structure hit rates");
    std::printf("%-12s %-10s %-10s\n", "workload", "ISV cache",
                "DSV cache");
    rule(34);
    for (std::size_t row = 0; row < grid.rows(); ++row) {
        const CellResult &r = grid.at(row, Scheme::Perspective);
        std::printf("%-12s %8.1f%% %9.1f%%\n", r.workload.c_str(),
                    100.0 * r.result.isvCacheHitRate,
                    100.0 * r.result.dsvCacheHitRate);
    }
    std::printf("[paper: both caches ~99%% hit rate]\n");
    return sweep.emitOutputs() ? 0 : 1;
}
