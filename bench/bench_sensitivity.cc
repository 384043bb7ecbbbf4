/**
 * @file
 * Section 9.2 sensitivity analyses:
 *  - cost of blocking unknown allocations (toggle blockUnknown);
 *  - DSVMT walk depths and memory footprint.
 *
 * The unknown-allocation grid runs through the sweep runner
 * (`--jobs N`, `--json PATH`); the DSVMT probe needs live access to
 * the policy's tree and stays inline. The ISV/DSV cache hit rates
 * are read from bench_apps's Perspective cells.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "core/perspective.hh"
#include "harness/sweep.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::bench;
using namespace perspective::harness;
using namespace perspective::workloads;

namespace
{

/** Cell body: Perspective with blockUnknown toggled. */
SweepCell
unknownCell(const WorkloadProfile &w, bool block_unknown)
{
    SweepCell c;
    c.profile = w;
    c.scheme = Scheme::Perspective;
    c.iterations = kIterations;
    c.warmup = kWarmup;
    c.tags = {{"section", "unknown-allocations"},
              {"block_unknown", block_unknown ? "true" : "false"}};
    c.body = [block_unknown](const SweepCell &cell) {
        core::PerspectiveConfig cfg;
        cfg.blockUnknown = block_unknown;
        Experiment e(cell.profile, Scheme::Perspective, cell.seed,
                     cell.sampling, cfg);
        return e.run(cell.iterations, cell.warmup);
    };
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner sweep(parseSweepArgs("bench_sensitivity", argc,
                                     argv));

    // Grid: per LEBench workload, [unsafe, block-unknown,
    // allow-unknown].
    auto suite = lebenchSuite();
    std::vector<SweepCell> cells;
    for (const auto &w : suite) {
        SweepCell base;
        base.profile = w;
        base.scheme = Scheme::Unsafe;
        base.iterations = kIterations;
        base.warmup = kWarmup;
        base.tags = {{"section", "unknown-allocations"},
                     {"role", "baseline"}};
        cells.push_back(std::move(base));
        cells.push_back(unknownCell(w, true));
        cells.push_back(unknownCell(w, false));
    }
    auto results = sweep.run(cells);

    banner("Section 9.2: Unknown allocations");
    std::printf("%-12s %-14s %-14s %-10s\n", "workload",
                "block-unknown", "allow-unknown", "delta");
    rule(54);
    double overhead_sum = 0;
    unsigned n = 0;
    for (std::size_t row = 0; row < suite.size(); ++row) {
        const CellResult &base = results[row * 3];
        double unsafe_cycles =
            static_cast<double>(base.result.cycles);
        double with_block =
            results[row * 3 + 1].result.cycles / unsafe_cycles;
        double without =
            results[row * 3 + 2].result.cycles / unsafe_cycles;
        overhead_sum += with_block - without;
        ++n;
        std::printf("%-12s %12.3f %14.3f %9.1f%%\n",
                    base.workload.c_str(), with_block, without,
                    100.0 * (with_block - without));
    }
    std::printf("average share of overhead from unknown allocations:"
                " %.1f%% of execution\n", 100.0 * overhead_sum / n);
    std::printf("[paper: unknown allocations account for ~1.5%% of "
                "Perspective's LEBench overhead]\n");

    banner("Section 9.2: DSVMT characteristics");
    {
        Experiment e(httpdProfile(), Scheme::Perspective);
        e.run(5, 1);
        auto *pol = e.perspectivePolicy();
        const auto &t = e.kernelState().task(e.mainPid());
        const auto &tree = pol->dsvmtOf(t.domain);
        std::printf("httpd DSVMT: ~%zu bytes resident, walk depth %u "
                    "for a context page\n",
                    tree.memoryBytes(),
                    tree.walkLevels(t.ctxPfn));
    }
    return sweep.emitOutputs() ? 0 : 1;
}
