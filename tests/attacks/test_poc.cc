/**
 * @file
 * End-to-end security evaluation (Chapter 8): every Table 4.1 PoC
 * against every relevant scheme, including the taxonomy split — DSVs
 * alone stop active attacks but not passive ones; ISVs close the
 * passive surface.
 */

#include <vector>

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

// Section 8.1/8.2's matrix as bench_security prints it: one row per
// scheme, one column per allPocs() entry (active v1 via ioctl, ptrace
// and bpf; passive v2; passive Retbleed). The per-scheme tests below
// check their cells of this one table.
struct MatrixRow
{
    Scheme scheme;
    bool leaked[5];
};

const MatrixRow kMatrix[] = {
    {Scheme::Unsafe, {true, true, true, true, true}},
    // KPTI + retpoline are spot fixes: v1 gadgets still leak.
    // Retpoline covers indirect calls but not returns (Table 4.1
    // rows 5-7), so v2 is stopped and Retbleed's exact gap stays.
    {Scheme::Spot, {true, true, true, false, true}},
    // Chapter 10's comparison: a shadow stack closes the return
    // hijack, but coarse CFI labels mark every kernel function entry
    // legal, so BTB injection still reaches the gadget, and v1 needs
    // no hijack at all.
    {Scheme::SpecCfi, {true, true, true, true, false}},
    // Invisible speculation closes the cache covert channel for every
    // variant, at the price of always-on hardware complexity that the
    // paper's pliable interface avoids.
    {Scheme::InvisiSpec, {false, false, false, false, false}},
    {Scheme::Fence, {false, false, false, false, false}},
    {Scheme::Dom, {false, false, false, false, false}},
    {Scheme::Stt, {false, false, false, false, false}},
    {Scheme::Perspective, {false, false, false, false, false}},
    {Scheme::PerspectivePlusPlus, {false, false, false, false, false}},
};

// Runs `kinds` under `scheme` and checks each against its matrix cell.
void
expectCells(Scheme scheme, const std::vector<PocKind> &kinds)
{
    const MatrixRow *row = nullptr;
    for (const MatrixRow &r : kMatrix)
        if (r.scheme == scheme)
            row = &r;
    ASSERT_NE(row, nullptr) << schemeName(scheme);
    const std::vector<PocKind> pocs = allPocs();
    ASSERT_EQ(pocs.size(), 5u);
    for (PocKind k : kinds) {
        std::size_t i = 0;
        while (i < pocs.size() && pocs[i] != k)
            ++i;
        ASSERT_LT(i, pocs.size()) << pocName(k);
        EXPECT_EQ(runUnder(scheme, k).leaked, row->leaked[i])
            << schemeName(scheme) << " / " << pocName(k);
    }
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

TEST(Poc, PerspectiveBlocksEverything)
{
    expectCells(Scheme::Perspective, allPocs());
}

TEST(Poc, PerspectivePlusPlusBlocksEverything)
{
    expectCells(Scheme::PerspectivePlusPlus, allPocs());
}

TEST(Poc, FenceBlocksEverything)
{
    expectCells(Scheme::Fence, allPocs());
}

TEST(Poc, SpotMitigationsMissSpectreV1)
{
    expectCells(Scheme::Spot, {PocKind::ActiveV1Ioctl,
                               PocKind::ActiveV1Ptrace,
                               PocKind::ActiveV1Bpf});
}

TEST(Poc, RetpolineStopsV2ButNotRetbleed)
{
    expectCells(Scheme::Spot,
                {PocKind::PassiveV2, PocKind::PassiveRetbleed});
}

TEST(Poc, SpecCfiShadowStackStopsRetbleedOnly)
{
    expectCells(Scheme::SpecCfi,
                {PocKind::PassiveRetbleed, PocKind::PassiveV2,
                 PocKind::ActiveV1Ioctl});
}

TEST(Poc, InvisiSpecBlocksAllCacheChannelPocs)
{
    expectCells(Scheme::InvisiSpec, allPocs());
}

TEST(Poc, SecurityMatrixOutcomes)
{
    for (const MatrixRow &row : kMatrix)
        expectCells(row.scheme, allPocs());
}
