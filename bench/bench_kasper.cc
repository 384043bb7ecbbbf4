/**
 * @file
 * Figure 9.1: speedup of the Kasper-style scanner's gadget discovery
 * rate (gadgets/hour) when its search space is bounded by each
 * workload's ISV. Both campaigns fuzz the same syscall corpus; the
 * bounded one skips instrumentation and taint analysis for functions
 * that can never execute speculatively.
 */

#include <cstdio>

#include "analysis/scanner.hh"
#include "common.hh"
#include "harness/sweep.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::analysis;
using namespace perspective::bench;
using namespace perspective::workloads;

namespace
{

double
speedupFor(const WorkloadProfile &w, ScanResult *bounded_out)
{
    Experiment e(w, Scheme::Perspective);
    GadgetScanner scanner(e.image(), e.memory(), e.executor(),
                          e.mainPid());
    ScannerConfig cfg;
    cfg.executions = 1500;
    auto bounded = scanner.scan(cfg, e.isvView());
    auto unbounded = scanner.scan(cfg);
    if (bounded_out)
        *bounded_out = bounded;
    return bounded.discoveryRate() / unbounded.discoveryRate();
}

} // namespace

int
main()
{
    banner("Figure 9.1: Speedup of Kasper's gadget discovery rate "
           "(gadgets/hour)");
    std::printf("%-10s %-9s %s\n", "Workload", "Speedup",
                "bounded (found, g/h)");
    rule(60);

    std::vector<double> speedups;

    // LEBench as one campaign over the whole suite's union view is
    // approximated by its most representative microbenchmarks.
    std::vector<WorkloadProfile> workloads = datacenterSuite();
    {
        auto suite = lebenchSuite();
        for (const auto &w : suite) {
            if (w.name == "poll" || w.name == "read")
                workloads.insert(workloads.begin(), w);
        }
    }

    for (const auto &w : workloads) {
        ScanResult bounded;
        double s = speedupFor(w, &bounded);
        speedups.push_back(s);
        std::printf("%-10s %6.2fx   %4u gadgets, %7.1f g/h\n",
                    w.name.c_str(), s, bounded.gadgetsFound,
                    bounded.discoveryRate());
    }
    std::printf("%-10s %6.2fx\n", "geomean",
                harness::geomean(speedups));
    std::printf("\n[paper: 1.14-2.23x per workload, 1.57x average]\n");
    return 0;
}
