/**
 * @file
 * Command-line workload runner — the "simulator frontend":
 *
 *   run_workload [workload] [scheme] [iterations]
 *   run_workload --list
 *
 * e.g.  ./examples/run_workload nginx perspective 30
 *       PERSPECTIVE_TRACE_OUT=rw.json ./examples/run_workload \
 *           getpid fence 2
 *
 * With PERSPECTIVE_TRACE_OUT set, the run's structured events
 * (commit/squash/fence/leak/window) are written to that path as
 * Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/chrome_trace.hh"
#include "sim/trace.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::workloads;

namespace
{

std::vector<WorkloadProfile>
allWorkloads()
{
    auto v = lebenchSuite();
    for (auto &w : datacenterSuite())
        v.push_back(w);
    return v;
}

const WorkloadProfile *
findWorkload(const std::vector<WorkloadProfile> &all,
             const std::string &name)
{
    for (const auto &w : all) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

bool
parseScheme(const std::string &name, Scheme *out)
{
    for (Scheme s :
         {Scheme::Unsafe, Scheme::Fence, Scheme::Dom, Scheme::Stt,
          Scheme::Spot, Scheme::SpecCfi, Scheme::InvisiSpec,
          Scheme::PerspectiveStatic, Scheme::Perspective,
          Scheme::PerspectivePlusPlus}) {
        if (name == schemeName(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    auto all = allWorkloads();

    if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
        std::printf("workloads:");
        for (const auto &w : all)
            std::printf(" %s", w.name.c_str());
        std::printf("\nschemes: unsafe fence dom stt spot spec-cfi "
                    "invisispec perspective-static perspective "
                    "perspective++\n");
        std::printf("trace: PERSPECTIVE_TRACE_OUT=PATH writes commit, "
                    "squash, fence, leak and window events as Chrome "
                    "trace JSON\n");
        return 0;
    }

    std::string workload = argc > 1 ? argv[1] : "redis";
    std::string scheme_name = argc > 2 ? argv[2] : "perspective";
    unsigned iterations =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 30;

    const WorkloadProfile *w = findWorkload(all, workload);
    Scheme scheme;
    if (!w || !parseScheme(scheme_name, &scheme)) {
        std::fprintf(stderr,
                     "usage: %s [workload] [scheme] [iterations] "
                     "(see --list)\n", argv[0]);
        return 1;
    }

    const char *trace_out = std::getenv("PERSPECTIVE_TRACE_OUT");
    sim::trace::EventLog log;
    if (trace_out)
        sim::trace::setEventLog(&log);

    Experiment e(*w, scheme);
    auto r = e.run(iterations, 3);
    sim::trace::setEventLog(nullptr);

    std::printf("workload            %s\n", w->name.c_str());
    std::printf("scheme              %s\n", scheme_name.c_str());
    std::printf("iterations          %u\n", iterations);
    std::printf("cycles              %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions        %llu (IPC %.2f)\n",
                static_cast<unsigned long long>(r.instructions),
                r.cycles ? static_cast<double>(r.instructions) /
                               r.cycles
                         : 0.0);
    std::printf("time in kernel      %.1f%%\n",
                100.0 * r.kernelFraction());
    std::printf("fences              %llu (%.1f per kilo-inst)\n",
                static_cast<unsigned long long>(r.fences),
                r.instructions
                    ? 1000.0 * r.fences / r.instructions
                    : 0.0);
    if (e.perspectivePolicy()) {
        std::printf("  isv / dsv fences  %llu / %llu\n",
                    static_cast<unsigned long long>(r.isvFences),
                    static_cast<unsigned long long>(r.dsvFences));
        std::printf("  isv cache hits    %.2f%%\n",
                    100.0 * r.isvCacheHitRate);
        std::printf("  dsv cache hits    %.2f%%\n",
                    100.0 * r.dsvCacheHitRate);
        std::printf("  isv size          %zu functions\n",
                    e.isvView()->numFunctions());
    }
    std::printf("mispredicts         %llu\n",
                static_cast<unsigned long long>(
                    r.stats.get("mispredicts")));
    std::printf("l1d miss rate       %.2f%%\n",
                100.0 * r.stats.ratio("l1d.misses",
                                      "l1d.accesses"));
    if (trace_out && !harness::writeChromeTrace(log, trace_out))
        return 1;
    return 0;
}
