/**
 * @file
 * Security assertions for the dynamic-update race scenarios: each
 * transient gap behaves exactly as modeled — leaks happen only where
 * the window is genuinely open, and every update, once landed, makes
 * the protected data unreachable again.
 */

#include <gtest/gtest.h>

#include "attacks/poc.hh"
#include "attacks/races.hh"
#include "core/isv_builders.hh"
#include "core/perspective.hh"
#include "workloads/experiment.hh"

using namespace perspective;
using namespace perspective::attacks;
using namespace perspective::workloads;

TEST(Races, RevocationWindowLeaksUntilShootdownLands)
{
    Experiment e(pocProfile(), Scheme::Perspective, 42);
    RaceResult r = raceRevocation(e);

    // The mid-flight window is the modeled vulnerability: the warm
    // stale Allow leaks the new owner's secret, and the policy
    // attributes each such access to the stale-allow counter.
    EXPECT_TRUE(r.leakedInWindow);
    EXPECT_GT(r.staleAllows, 0u);

    // Security contract: once the shootdown applies, the revoked
    // frame is unreachable — the gap has closed.
    EXPECT_FALSE(r.leakedAfterUpdate);
    EXPECT_GT(r.updateLatency, 0u);

    // The lazily-created dynamic-update histograms exist and sampled
    // the window once their events fired.
    auto &st = e.pipeline().stats();
    EXPECT_GT(st.histogram("transient_gap_cycles").count(), 0u);
    EXPECT_GT(st.histogram("update_latency").count(), 0u);
}

TEST(Races, ModuleLoadGapIsOnTheSafeSide)
{
    Experiment e(pocProfile(), Scheme::Perspective, 42);
    RaceResult r = raceModuleLoad(e);

    // Unloaded module text is not in the view: the hijack is fenced.
    EXPECT_FALSE(r.leakedBeforeUpdate);
    // Between the slot write and the ISV update the gap errs closed:
    // the slot points at module code the view still excludes.
    EXPECT_FALSE(r.leakedInWindow);
    // A plain incremental extension genuinely grows the surface onto
    // the module's gadget...
    EXPECT_TRUE(r.leakedAfterUpdate);
    // ...and only the ISV++ load-time audit re-closes it.
    EXPECT_FALSE(r.leakedAfterAudit);
    EXPECT_GE(r.updateLatency, core::kIsvUpdateBase);
}

TEST(Races, FleetFlipKillsTheLaxLeak)
{
    Experiment e(pocProfile(), Scheme::Perspective, 42);
    RaceResult r = raceFleetFlip(e);

    // Under the lax per-tenant setting the unknown-provenance leak
    // works; after the fleet-wide flip propagates it must not.
    EXPECT_TRUE(r.leakedBeforeUpdate);
    EXPECT_FALSE(r.leakedAfterUpdate);
    EXPECT_EQ(r.updateLatency,
              core::kFleetFlipBase + 2 * core::kFleetFlipPerContext);
}
