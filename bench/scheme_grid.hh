/**
 * @file
 * The (workload x scheme) grid that Figure 9.2 and Figure 9.3 share:
 * its planner, the normalized-table renderer, and Table 10.1, which
 * reads the same cells' fence counters instead of simulating them
 * again.
 */

#ifndef PERSPECTIVE_BENCH_SCHEME_GRID_HH
#define PERSPECTIVE_BENCH_SCHEME_GRID_HH

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>
#include <vector>

#include "common.hh"
#include "harness/sweep.hh"
#include "workloads/experiment.hh"

namespace perspective::bench
{

/** A grid row's columns: UNSAFE, then the compared schemes. */
inline constexpr std::array kGridSchemes = {
    workloads::Scheme::Unsafe,     workloads::Scheme::Fence,
    workloads::Scheme::Dom,        workloads::Scheme::Stt,
    workloads::Scheme::InvisiSpec, workloads::Scheme::Spot,
    workloads::Scheme::PerspectiveStatic,
    workloads::Scheme::Perspective,
    workloads::Scheme::PerspectivePlusPlus};

/** One row per workload, one cell per kGridSchemes entry. */
class SchemeGrid
{
  public:
    /** Plan the grid over @p suite, row-major, and run it. */
    SchemeGrid(harness::SweepRunner &sweep,
               const std::vector<workloads::WorkloadProfile> &suite)
    {
        std::vector<harness::SweepCell> cells;
        for (const auto &w : suite) {
            for (workloads::Scheme s : kGridSchemes) {
                harness::SweepCell &c = cells.emplace_back();
                c.profile = w;
                c.scheme = s;
                c.iterations = kIterations;
                c.warmup = kWarmup;
            }
        }
        results_ = sweep.run(cells);
    }

    std::size_t rows() const { return results_.size() / kGridSchemes.size(); }

    /** Row @p row's cell of @p s, one of kGridSchemes. */
    const harness::CellResult &
    at(std::size_t row, workloads::Scheme s) const
    {
        auto k = std::find(kGridSchemes.begin(), kGridSchemes.end(), s) -
                 kGridSchemes.begin();
        return results_[row * kGridSchemes.size() + k];
    }

    /**
     * Print a row per workload and a column per compared scheme, then
     * their geomeans. @p header and @p geomean_label fill the leading
     * @p label_width columns; @p row_label prints a row's from its
     * UNSAFE cell, and @p normalize maps (cell, UNSAFE cell) to the
     * printed ratio.
     */
    template <typename RowLabel, typename Normalize>
    void
    printNormalized(const char *header, int label_width,
                    RowLabel row_label, Normalize normalize,
                    const char *geomean_label) const
    {
        const unsigned width =
            label_width + 12 * (kGridSchemes.size() - 1);
        std::printf("%-*s", label_width, header);
        for (std::size_t k = 1; k < kGridSchemes.size(); ++k)
            std::printf("%12s", workloads::schemeName(kGridSchemes[k]));
        std::printf("\n");
        rule(width);

        std::vector<std::vector<double>> norms(kGridSchemes.size());
        for (std::size_t row = 0; row < rows(); ++row) {
            const auto &base = at(row, workloads::Scheme::Unsafe);
            row_label(base);
            for (std::size_t k = 1; k < kGridSchemes.size(); ++k) {
                norms[k].push_back(
                    normalize(at(row, kGridSchemes[k]), base));
                std::printf("%12.3f", norms[k].back());
            }
            std::printf("\n");
        }

        rule(width);
        std::printf("%-*s", label_width, geomean_label);
        for (std::size_t k = 1; k < kGridSchemes.size(); ++k)
            std::printf("%12.3f", harness::geomean(norms[k]));
        std::printf("\n");
    }

  private:
    std::vector<harness::CellResult> results_;
};

/**
 * Table 10.1 from @p grid's Perspective cells: per flavor, a row per
 * workload or, given @p suite_name, one row holding the suite's
 * arithmetic mean of per-workload shares and per-kilo-instruction
 * rates. A sampled cell's fence counters cover only its detailed
 * windows while `instructions` covers the whole stream, so a sampled
 * grid prints a note instead.
 */
inline void
printFenceTable(const SchemeGrid &grid, const char *suite_name = nullptr)
{
    using workloads::Scheme;
    const std::pair<Scheme, const char *> flavors[] = {
        {Scheme::PerspectiveStatic, "ISV-S/DSV"},
        {Scheme::Perspective, "ISV/DSV"},
        {Scheme::PerspectivePlusPlus, "ISV++/DSV"}};

    banner("Table 10.1: Percentage of fenced instructions due to "
           "ISV and DSV");
    bool sampled = false;
    for (std::size_t row = 0; row < grid.rows(); ++row)
        for (const auto &[s, label] : flavors)
            sampled |= grid.at(row, s).result.sampling.active;
    if (sampled) {
        std::printf("[sampled run: the fence counters cover only "
                    "detailed windows; Table 10.1 needs an exact run]\n");
        return;
    }

    std::printf("%-14s %-12s %-12s %s\n", "Config", "Workload",
                "ISV% / DSV%", "fences per kilo-inst");
    rule(70);
    // {ISV share %, DSV share %, ISV per kilo-inst, DSV per kilo-inst}
    using Row = std::array<double, 4>;
    auto print = [](const char *label, const char *workload,
                    const Row &v) {
        char shares[32];
        std::snprintf(shares, sizeof shares, "%.0f%% / %.0f%%", v[0],
                      v[1]);
        std::printf("%-14s %-12s %-12s %4.1f isv + %4.1f dsv\n", label,
                    workload, shares, v[2], v[3]);
    };
    for (const auto &[s, label] : flavors) {
        Row sum{};
        for (std::size_t row = 0; row < grid.rows(); ++row) {
            const harness::CellResult &c = grid.at(row, s);
            const workloads::RunResult &r = c.result;
            double fenced = static_cast<double>(r.isvFences + r.dsvFences);
            double ki = r.instructions / 1000.0;
            Row v = {fenced > 0 ? 100.0 * r.isvFences / fenced : 0.0,
                     fenced > 0 ? 100.0 * r.dsvFences / fenced : 0.0,
                     r.isvFences / ki, r.dsvFences / ki};
            if (!suite_name)
                print(label, c.workload.c_str(), v);
            for (std::size_t i = 0; i < v.size(); ++i)
                sum[i] += v[i];
        }
        if (suite_name) {
            for (double &x : sum)
                x /= static_cast<double>(grid.rows());
            print(label, suite_name, sum);
        }
    }

    std::printf("\n[paper: ISV share 12-27%%, DSV share 73-88%%; "
                "~9 ISV and ~37 DSV fences per kilo-instruction]\n");
}

} // namespace perspective::bench

#endif // PERSPECTIVE_BENCH_SCHEME_GRID_HH
