/**
 * @file
 * End-to-end security evaluation (Chapter 8): every Table 4.1 PoC
 * against every relevant scheme, including the taxonomy split — DSVs
 * alone stop active attacks but not passive ones; ISVs close the
 * passive surface.
 */

#include <gtest/gtest.h>

#include "attacks/poc.hh"
#include "core/perspective.hh"

using namespace perspective;
using namespace perspective::attacks;
using namespace perspective::workloads;

namespace
{

PocResult
runUnder(Scheme scheme, PocKind kind)
{
    Experiment e(pocProfile(), scheme);
    return runPoc(kind, e);
}

} // namespace

TEST(Poc, AllAttacksLeakOnUnsafeHardware)
{
    for (PocKind k : allPocs()) {
        auto r = runUnder(Scheme::Unsafe, k);
        EXPECT_TRUE(r.leaked) << pocName(k);
        ASSERT_TRUE(r.recovered.has_value()) << pocName(k);
        EXPECT_EQ(*r.recovered, r.expected) << pocName(k);
    }
}

TEST(Poc, PerspectiveBlocksEverything)
{
    for (PocKind k : allPocs()) {
        auto r = runUnder(Scheme::Perspective, k);
        EXPECT_FALSE(r.leaked) << pocName(k);
    }
}

TEST(Poc, PerspectivePlusPlusBlocksEverything)
{
    for (PocKind k : allPocs()) {
        auto r = runUnder(Scheme::PerspectivePlusPlus, k);
        EXPECT_FALSE(r.leaked) << pocName(k);
    }
}

TEST(Poc, FenceBlocksEverything)
{
    for (PocKind k : allPocs()) {
        auto r = runUnder(Scheme::Fence, k);
        EXPECT_FALSE(r.leaked) << pocName(k);
    }
}

TEST(Poc, SpotMitigationsMissSpectreV1)
{
    // KPTI + retpoline are spot fixes: v1 gadgets still leak.
    for (PocKind k : {PocKind::ActiveV1Ioctl, PocKind::ActiveV1Ptrace,
                      PocKind::ActiveV1Bpf}) {
        auto r = runUnder(Scheme::Spot, k);
        EXPECT_TRUE(r.leaked) << pocName(k);
    }
}

TEST(Poc, RetpolineStopsV2ButNotRetbleed)
{
    // Table 4.1 rows 5-7: retpoline covers indirect calls but not
    // returns — Retbleed's exact gap.
    EXPECT_FALSE(runUnder(Scheme::Spot, PocKind::PassiveV2).leaked);
    EXPECT_TRUE(
        runUnder(Scheme::Spot, PocKind::PassiveRetbleed).leaked);
}

TEST(Poc, DsvAloneStopsActiveAttacks)
{
    // Taxonomy, active half: ownership isolation suffices.
    core::PerspectiveConfig dsv_only;
    dsv_only.enableIsv = false;
    Experiment e(pocProfile(), Scheme::Perspective, 42, {}, dsv_only);

    for (PocKind k : {PocKind::ActiveV1Ioctl, PocKind::ActiveV1Ptrace,
                      PocKind::ActiveV1Bpf}) {
        auto r = runPoc(k, e);
        EXPECT_FALSE(r.leaked) << pocName(k);
    }
}

TEST(Poc, DsvAloneMissesPassiveAttacks)
{
    // Taxonomy, passive half: the hijacked victim reads its OWN data
    // — no ownership violation — so DSVs cannot help. This is why
    // Perspective needs ISVs (Section 4.1).
    core::PerspectiveConfig dsv_only;
    dsv_only.enableIsv = false;
    Experiment e(pocProfile(), Scheme::Perspective, 42, {}, dsv_only);

    auto r = runPoc(PocKind::PassiveV2, e);
    EXPECT_TRUE(r.leaked) << "passive v2 must bypass DSV-only";
}

TEST(Poc, IsvAloneStopsPassiveAttacks)
{
    core::PerspectiveConfig isv_only;
    isv_only.enableDsv = false;
    Experiment e(pocProfile(), Scheme::Perspective, 42, {}, isv_only);

    EXPECT_FALSE(runPoc(PocKind::PassiveV2, e).leaked);
    EXPECT_FALSE(runPoc(PocKind::PassiveRetbleed, e).leaked);
}

TEST(Poc, CatalogHasNineRowsMappedToPocs)
{
    const auto &rows = cveCatalog();
    ASSERT_EQ(rows.size(), 9u);
    unsigned v1 = 0, hijack = 0;
    for (const auto &r : rows) {
        if (r.primitive == Primitive::SpeculativeDataAccess)
            ++v1;
        else
            ++hijack;
    }
    EXPECT_EQ(v1, 4u);
    EXPECT_EQ(hijack, 5u);
}

TEST(Poc, SpecCfiShadowStackStopsRetbleedOnly)
{
    // Chapter 10's comparison: a shadow stack closes the return
    // hijack, but coarse CFI labels mark every kernel function entry
    // legal, so BTB injection still reaches the gadget, and v1 needs
    // no hijack at all.
    EXPECT_FALSE(
        runUnder(Scheme::SpecCfi, PocKind::PassiveRetbleed).leaked);
    EXPECT_TRUE(runUnder(Scheme::SpecCfi, PocKind::PassiveV2).leaked);
    EXPECT_TRUE(
        runUnder(Scheme::SpecCfi, PocKind::ActiveV1Ioctl).leaked);
}

TEST(Poc, InvisiSpecBlocksAllCacheChannelPocs)
{
    // Invisible speculation closes the cache covert channel for every
    // variant — at the price of always-on hardware complexity the
    // paper's pliable interface avoids.
    for (PocKind k : allPocs())
        EXPECT_FALSE(runUnder(Scheme::InvisiSpec, k).leaked)
            << pocName(k);
}

TEST(Poc, SecurityMatrixOutcomes)
{
    // Section 8.1/8.2's matrix as bench_security prints it: one row
    // per scheme, one column per allPocs() entry (active v1 via
    // ioctl, ptrace and bpf; passive v2; passive Retbleed).
    struct Row
    {
        Scheme scheme;
        bool leaked[5];
    };
    const Row rows[] = {
        {Scheme::Unsafe, {true, true, true, true, true}},
        {Scheme::Spot, {true, true, true, false, true}},
        {Scheme::SpecCfi, {true, true, true, true, false}},
        {Scheme::InvisiSpec, {false, false, false, false, false}},
        {Scheme::Fence, {false, false, false, false, false}},
        {Scheme::Dom, {false, false, false, false, false}},
        {Scheme::Stt, {false, false, false, false, false}},
        {Scheme::Perspective, {false, false, false, false, false}},
        {Scheme::PerspectivePlusPlus,
         {false, false, false, false, false}},
    };
    const std::vector<PocKind> pocs = allPocs();
    ASSERT_EQ(pocs.size(), 5u);
    for (const Row &row : rows) {
        for (std::size_t i = 0; i < pocs.size(); ++i) {
            EXPECT_EQ(runUnder(row.scheme, pocs[i]).leaked,
                      row.leaked[i])
                << schemeName(row.scheme) << " / " << pocName(pocs[i]);
        }
    }
}
