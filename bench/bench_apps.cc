/**
 * @file
 * Figure 9.3: datacenter application throughput (requests/second)
 * normalized to UNSAFE, including the hardware-scheme and spot-
 * mitigation comparison points of Section 9.1. RPS is computed from
 * measured cycles at the simulated 2 GHz clock.
 *
 * The (app x scheme) grid runs through the sweep runner: `--jobs N`
 * parallelizes the cells, `--json PATH` emits the raw results.
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

namespace
{

constexpr double kClockHz = 2.0e9;

double
rpsOf(const CellResult &r)
{
    double seconds = r.result.cycles / kClockHz;
    return kIterations / seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner sweep(parseSweepArgs("bench_apps", argc, argv));

    banner("Figure 9.3: Requests per second normalized to UNSAFE");

    std::vector<Scheme> schemes = {
        Scheme::Fence,           Scheme::Dom,
        Scheme::Stt,             Scheme::InvisiSpec,
        Scheme::Spot,            Scheme::PerspectiveStatic,
        Scheme::Perspective,     Scheme::PerspectivePlusPlus};

    auto apps = datacenterSuite();
    std::vector<SweepCell> cells;
    for (const auto &w : apps) {
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

    std::printf("%-11s %10s %6s", "app", "RPS", "OS%");
    for (Scheme s : schemes)
        std::printf("%12s", schemeName(s));
    std::printf("\n");
    rule(28 + 12 * schemes.size());

    const std::size_t stride = 1 + schemes.size();
    std::map<Scheme, std::vector<double>> norms;
    for (std::size_t row = 0; row < apps.size(); ++row) {
        const CellResult &base = results[row * stride];
        double unsafe_rps = rpsOf(base);
        std::printf("%-11s %10.0f %5.0f%%",
                    base.workload.c_str(), unsafe_rps,
                    100.0 * base.result.kernelFraction());
        for (std::size_t k = 0; k < schemes.size(); ++k) {
            const CellResult &r = results[row * stride + 1 + k];
            double norm = rpsOf(r) / unsafe_rps;
            norms[schemes[k]].push_back(norm);
            std::printf("%12.3f", norm);
        }
        std::printf("\n");
    }

    rule(28 + 12 * schemes.size());
    std::printf("%-28s", "geomean normalized RPS");
    for (Scheme s : schemes)
        std::printf("%12.3f", geomean(norms[s]));
    std::printf("\n");

    std::printf("\n[paper: FENCE 0.943, DOM 0.983, STT 0.996, "
                "spot 0.95, Perspective flavors 0.987-0.988;\n"
                " OS-time fractions 50/65/65/53%% for "
                "httpd/nginx/memcached/redis]\n");
    return sweep.emitOutputs() ? 0 : 1;
}
