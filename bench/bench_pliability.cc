/**
 * @file
 * Runtime pliability sweep: the three dynamic-update scenarios
 * (DSV revocation mid-flight, module load with incremental ISV
 * recomputation, admin fleet flip) driven end-to-end with real PoC
 * attacks racing each update window, plus a revocation-budget sweep
 * tracing the leak-probability-vs-shootdown-budget curve.
 *
 * Each cell emits the first-class update metrics — the
 * "update_latency" and "transient_gap_cycles" histograms plus the
 * "perspective.revocation.stale_allows" counter — alongside the
 * scenario outcome (which attack phases leaked) and the transient-
 * leakage ledger roll-up (secret loads, bytes transmitted, window
 * attribution; DESIGN §5.6). The security contract each scenario
 * must satisfy:
 *
 *  - revocation: revoked data is unreachable once the gap closes,
 *    and a zero budget (synchronous shootdown) transmits nothing;
 *  - module load: the pre-update gap is on the safe side, and the
 *    ISV++ audit re-closes the surface a plain extension opens;
 *  - fleet flip: the lax-setting leak dies once contexts sync.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "attacks/poc.hh"
#include "attacks/races.hh"
#include "common.hh"
#include "harness/sweep.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::bench;
using namespace perspective::harness;
using namespace perspective::workloads;

namespace
{

using ScenarioFn = attacks::RaceResult (*)(Experiment &);

/** Shootdown budgets swept for the leak-vs-budget curve. */
constexpr sim::Cycle kBudgets[] = {0,       1'000,     10'000,
                                   100'000, 1'000'000, 50'000'000};

void
harvestRace(RunResult &r, Experiment &e,
            const attacks::RaceResult &race)
{
    r.cycles = e.pipeline().now();
    r.stats = e.pipeline().stats();
    r.stats.inc("race.leaked_before_update", race.leakedBeforeUpdate);
    r.stats.inc("race.leaked_in_window", race.leakedInWindow);
    r.stats.inc("race.leaked_after_update", race.leakedAfterUpdate);
    r.stats.inc("race.leaked_after_audit", race.leakedAfterAudit);
    r.stats.inc("race.update_latency_cycles", race.updateLatency);
    r.stats.inc("race.stale_allows", race.staleAllows);
    r.leakage = e.leakageSummary();
}

SweepCell
scenarioCell(const char *name, ScenarioFn fn)
{
    SweepCell c;
    c.profile = attacks::pocProfile();
    c.scheme = Scheme::Perspective;
    c.iterations = 1;
    c.warmup = 0;
    // The race drives the pipeline itself, not through
    // Experiment::run, so it always runs exact.
    c.sampling = {};
    c.tags = {{"pliability", name}};
    c.body = [fn](const SweepCell &cell) {
        Experiment e(cell.profile, Scheme::Perspective, cell.seed,
                     cell.sampling);
        attacks::RaceResult race = fn(e);
        RunResult r;
        harvestRace(r, e, race);
        return r;
    };
    return c;
}

SweepCell
budgetCell(sim::Cycle budget)
{
    SweepCell c;
    c.profile = attacks::pocProfile();
    c.scheme = Scheme::Perspective;
    c.iterations = 1;
    c.warmup = 0;
    c.sampling = {}; // a race, like scenarioCell: always exact
    // The budget tag keeps every curve cell's config hash distinct
    // (custom-body cells alias without distinguishing tags).
    c.tags = {{"pliability", "revocation-curve"},
              {"budget", std::to_string(budget)}};
    c.body = [budget](const SweepCell &cell) {
        Experiment e(cell.profile, Scheme::Perspective, cell.seed,
                     cell.sampling);
        attacks::RaceResult race = attacks::raceRevocation(e, budget);
        RunResult r;
        harvestRace(r, e, race);
        r.stats.inc("race.budget_cycles", budget);
        return r;
    };
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepOptions opts =
        parseSweepArgs("bench_pliability", argc, argv);
    SweepRunner sweep(opts);

    std::vector<SweepCell> cells = {
        scenarioCell("revocation", attacks::raceRevocation),
        scenarioCell("module-load", attacks::raceModuleLoad),
        scenarioCell("fleet-flip", attacks::raceFleetFlip),
    };
    const std::size_t nScenarios = cells.size();
    for (sim::Cycle b : kBudgets)
        cells.push_back(budgetCell(b));

    auto results = sweep.run(cells);

    banner("Dynamic-update races (Perspective)");
    std::printf("%-12s %8s %8s %8s %8s %12s %8s\n", "scenario",
                "before", "window", "after", "audit",
                "upd-cycles", "stale");
    rule(72);
    for (std::size_t i = 0; i < nScenarios; ++i) {
        const auto &res = results[i];
        if (!res.ok) {
            std::printf("%-12s FAILED: %s\n",
                        res.tags.at("pliability").c_str(),
                        res.error.c_str());
            continue;
        }
        const auto &st = res.result.stats;
        std::printf(
            "%-12s %8llu %8llu %8llu %8llu %12llu %8llu\n",
            res.tags.at("pliability").c_str(),
            (unsigned long long)st.get(
                "race.leaked_before_update"),
            (unsigned long long)st.get("race.leaked_in_window"),
            (unsigned long long)st.get(
                "race.leaked_after_update"),
            (unsigned long long)st.get("race.leaked_after_audit"),
            (unsigned long long)st.get(
                "race.update_latency_cycles"),
            (unsigned long long)st.get("race.stale_allows"));
    }

    banner("Leak probability vs revocation budget");
    std::printf("%12s %8s %8s %10s %8s %8s\n", "budget", "window",
                "stale", "secret-lds", "tx", "tx-bytes");
    rule(60);
    for (std::size_t i = nScenarios; i < results.size(); ++i) {
        const auto &res = results[i];
        if (!res.ok) {
            std::printf("%12s FAILED: %s\n",
                        res.tags.at("budget").c_str(),
                        res.error.c_str());
            continue;
        }
        const auto &st = res.result.stats;
        const auto &lk = res.result.leakage;
        std::printf("%12s %8llu %8llu %10llu %8llu %8llu\n",
                    res.tags.at("budget").c_str(),
                    (unsigned long long)st.get(
                        "race.leaked_in_window"),
                    (unsigned long long)st.get(
                        "race.stale_allows"),
                    (unsigned long long)lk.secretLoads,
                    (unsigned long long)lk.transmissions,
                    (unsigned long long)lk.bytesTransmitted);
    }

    bool ok = sweep.emitOutputs();
    for (const auto &res : results)
        ok = ok && res.ok;
    return ok ? 0 : 1;
}
