/**
 * @file
 * Tables 8.1 and 8.2 from one set of views: each workload's ISV-S,
 * ISV and ISV++ experiments are built once.
 *
 * Table 8.1: attack-surface reduction — the fraction of kernel
 * functions excluded from speculative execution by static (ISV-S) and
 * dynamic (ISV) views, per workload.
 *
 * Table 8.2: MDS / Port / Cache gadget reduction. For each workload
 * and ISV flavor, the fraction of the 1 533 planted gadgets whose
 * functions fall OUTSIDE the view — i.e. whose speculative execution
 * Perspective blocks. ISV++ (audit-hardened) must reach 100%.
 *
 * The LEBench rows average the per-microbenchmark personalized views,
 * like the paper.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "kernel/image.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::bench;
using namespace perspective::kernel;
using namespace perspective::workloads;

namespace
{

struct Reduction
{
    double mds = 0, port = 0, cache = 0;
};

Reduction
blockedBy(const core::IsvView &view, const KernelImage &img)
{
    unsigned total[3] = {0, 0, 0};
    unsigned blocked[3] = {0, 0, 0};
    for (std::size_t f = 0; f < img.numKernelFunctions(); ++f) {
        auto id = static_cast<sim::FuncId>(f);
        for (GadgetKind k : img.info(id).gadgets) {
            unsigned i = static_cast<unsigned>(k);
            ++total[i];
            if (!view.containsFunction(id))
                ++blocked[i];
        }
    }
    Reduction r;
    r.mds = 100.0 * blocked[0] / total[0];
    r.port = 100.0 * blocked[1] / total[1];
    r.cache = 100.0 * blocked[2] / total[2];
    return r;
}

/** One workload's three views, measured for both tables. */
struct Views
{
    double staticPct = 0;  ///< functions remaining under ISV-S
    double dynamicPct = 0; ///< functions remaining under ISV
    Reduction s, d, pp;    ///< gadgets blocked by ISV-S, ISV, ISV++
};

Views
viewsOf(const WorkloadProfile &w)
{
    Experiment es(w, Scheme::PerspectiveStatic);
    Experiment ed(w, Scheme::Perspective);
    Experiment ep(w, Scheme::PerspectivePlusPlus);
    double total = static_cast<double>(es.image().numKernelFunctions());
    Views v;
    v.staticPct = 100.0 * es.isvView()->numFunctions() / total;
    v.dynamicPct = 100.0 * ed.isvView()->numFunctions() / total;
    v.s = blockedBy(*es.isvView(), es.image());
    v.d = blockedBy(*ed.isvView(), ed.image());
    v.pp = blockedBy(*ep.isvView(), ep.image());
    return v;
}

/** Every field of @p suite's views, averaged over its workloads. */
Views
meanViewsOf(const std::vector<WorkloadProfile> &suite)
{
    Views m;
    auto add = [](Reduction &sum, const Reduction &r) {
        sum.mds += r.mds;
        sum.port += r.port;
        sum.cache += r.cache;
    };
    for (const auto &w : suite) {
        Views v = viewsOf(w);
        m.staticPct += v.staticPct;
        m.dynamicPct += v.dynamicPct;
        add(m.s, v.s);
        add(m.d, v.d);
        add(m.pp, v.pp);
    }
    double n = static_cast<double>(suite.size());
    m.staticPct /= n;
    m.dynamicPct /= n;
    for (Reduction *r : {&m.s, &m.d, &m.pp})
        *r = {r->mds / n, r->port / n, r->cache / n};
    return m;
}

} // namespace

int
main()
{
    std::vector<std::pair<std::string, Views>> rows;
    rows.emplace_back("LEBench", meanViewsOf(lebenchSuite()));
    for (const auto &w : datacenterSuite())
        rows.emplace_back(w.name, viewsOf(w));

    banner("Table 8.1: Attack surface reduction with Perspective");
    std::printf("(reduction = 100%% - remaining speculatively-"
                "executable functions)\n\n");
    std::printf("%-10s %-10s %-10s\n", "Config", "ISV-S", "ISV");
    rule(32);
    for (const auto &[name, v] : rows) {
        std::printf("%-10s %6.1f%%    %6.1f%%\n", name.c_str(),
                    100.0 - v.staticPct, 100.0 - v.dynamicPct);
    }
    std::printf("\n[paper: ISV-S 90-92%%, ISV 94-96%% across all "
                "workloads]\n");

    banner("Table 8.2: Perspective's MDS/Port/Cache gadget reduction");
    std::printf("%-10s %-22s %-22s %-22s\n", "Benchmark", "ISV-S",
                "ISV", "ISV++");
    rule(80);
    for (const auto &[name, v] : rows) {
        std::printf("%-10s %5.0f%% /%5.0f%% /%5.0f%%  "
                    "%5.0f%% /%5.0f%% /%5.0f%%  "
                    "%5.0f%% /%5.0f%% /%5.0f%%\n",
                    name.c_str(), v.s.mds, v.s.port, v.s.cache,
                    v.d.mds, v.d.port, v.d.cache, v.pp.mds, v.pp.port,
                    v.pp.cache);
    }
    std::printf("\n[paper: ISV-S 78-87%%, ISV 91-93%%, ISV++ 100%% "
                "everywhere]\n");
    return 0;
}
