/**
 * @file
 * LeakLedger unit tests: source-slot allocation and overflow
 * refcounting, per-source byte dedupe, window attribution, gadget
 * aggregation, and snapshot/restore rewind (DESIGN §5.6).
 */

#include <gtest/gtest.h>

#include "sim/leakage.hh"

using namespace perspective::sim;

namespace
{

constexpr FuncId kF = 7;
constexpr FuncId kEntry = 3;

std::uint8_t
addSource(LeakLedger &l, Addr va = 0x1000, Addr pc = 0x40,
          LeakWindow w = LeakWindow::Baseline)
{
    return l.noteSecretLoad(va, pc, kF, kEntry, w);
}

} // namespace

TEST(LeakLedger, ArmedNeedsClassifierAndEnable)
{
    LeakLedger l;
    EXPECT_TRUE(l.enabled());
    EXPECT_FALSE(l.armed()); // no classifier yet
    l.setClassifier([](Addr, FuncId, Asid, Cycle) {
        return SecretVerdict{true, LeakWindow::Baseline};
    });
    EXPECT_TRUE(l.armed());
    l.setEnabled(false);
    EXPECT_FALSE(l.armed());
}

TEST(LeakLedger, SourceSlotsAreDistinctAndReusedAfterRetire)
{
    LeakLedger l;
    std::uint8_t a = addSource(l);
    std::uint8_t b = addSource(l);
    EXPECT_NE(a, b);
    EXPECT_LT(a, LeakLedger::kOverflowBit);
    EXPECT_LT(b, LeakLedger::kOverflowBit);

    l.retireSource(a);
    std::uint8_t c = addSource(l);
    EXPECT_LT(c, LeakLedger::kOverflowBit);

    LeakageSummary s = l.summary();
    EXPECT_EQ(s.secretLoads, 3u);
    EXPECT_EQ(s.bytesAtRisk, 24u);
    EXPECT_EQ(s.taintOverflows, 0u);
}

TEST(LeakLedger, OverflowSlotRefcountsLifetimes)
{
    LeakLedger l;
    for (unsigned i = 0; i < LeakLedger::kOverflowBit; ++i)
        EXPECT_LT(addSource(l), LeakLedger::kOverflowBit);

    // Slots exhausted: the next two land on the shared overflow bit.
    std::uint8_t o1 = addSource(l, 0x2000);
    std::uint8_t o2 = addSource(l, 0x3000);
    EXPECT_EQ(o1, LeakLedger::kOverflowBit);
    EXPECT_EQ(o2, LeakLedger::kOverflowBit);
    EXPECT_EQ(l.summary().taintOverflows, 2u);

    // One retirement keeps the aggregate alive; the second kills it.
    l.retireSource(o1);
    l.noteTransmission(std::uint64_t{1} << LeakLedger::kOverflowBit,
                       LeakChannel::CacheInstall, 0x80, kF);
    EXPECT_EQ(l.summary().transmissions, 1u);
    l.retireSource(o2);
    l.noteTransmission(std::uint64_t{1} << LeakLedger::kOverflowBit,
                       LeakChannel::CacheInstall, 0x80, kF);
    EXPECT_EQ(l.summary().transmissions, 1u); // dead: no new count
}

TEST(LeakLedger, BytesDedupePerSourceButEventsAccumulate)
{
    LeakLedger l;
    std::uint8_t a = addSource(l);
    std::uint64_t mask = std::uint64_t{1} << a;

    l.noteTransmission(mask, LeakChannel::CacheInstall, 0x80, kF);
    l.noteTransmission(mask, LeakChannel::TlbFill, 0x84, kF);
    l.noteTransmission(mask, LeakChannel::CacheInstall, 0x80, kF);

    LeakageSummary s = l.summary();
    EXPECT_EQ(s.transmissions, 3u);
    EXPECT_EQ(s.bytesTransmitted, 8u); // one secret value, once
    EXPECT_EQ(s.channelCacheInstall, 2u);
    EXPECT_EQ(s.channelTlbFill, 1u);
}

TEST(LeakLedger, StaleTaintBitsAreIgnored)
{
    LeakLedger l;
    std::uint8_t a = addSource(l);
    l.retireSource(a);
    l.noteTransmission(std::uint64_t{1} << a,
                       LeakChannel::CacheInstall, 0x80, kF);
    LeakageSummary s = l.summary();
    EXPECT_EQ(s.transmissions, 0u);
    EXPECT_EQ(s.channelCacheInstall, 0u);
}

TEST(LeakLedger, WindowRowsAttributeLoadsAndBytes)
{
    LeakLedger l;
    std::uint8_t a =
        addSource(l, 0x1000, 0x40, LeakWindow::Revocation);
    addSource(l, 0x1100, 0x44, LeakWindow::FleetFlip);
    l.noteTransmission(std::uint64_t{1} << a,
                       LeakChannel::CacheInstall, 0x80, kF);

    LeakageSummary s = l.summary();
    const auto &rev =
        s.windows[static_cast<unsigned>(LeakWindow::Revocation)];
    const auto &flip =
        s.windows[static_cast<unsigned>(LeakWindow::FleetFlip)];
    EXPECT_EQ(rev.secretLoads, 1u);
    EXPECT_EQ(rev.transmissions, 1u);
    EXPECT_EQ(rev.bytesTransmitted, 8u);
    EXPECT_EQ(flip.secretLoads, 1u);
    EXPECT_EQ(flip.transmissions, 0u);
}

TEST(LeakLedger, GadgetTableSortsByBytesAndKeepsAttribution)
{
    LeakLedger l;
    // Gadget at 0x80 transmits two distinct sources; 0x90 one.
    std::uint8_t a = addSource(l, 0x1000);
    std::uint8_t b = addSource(l, 0x1100);
    std::uint8_t c = addSource(l, 0x1200);
    l.noteTransmission((std::uint64_t{1} << a) |
                           (std::uint64_t{1} << b),
                       LeakChannel::CacheInstall, 0x80, kF);
    l.noteTransmission(std::uint64_t{1} << c,
                       LeakChannel::CacheInstall, 0x90, kF);

    LeakageSummary s = l.summary();
    ASSERT_EQ(s.topGadgets.size(), 2u);
    EXPECT_EQ(s.topGadgets[0].pc, 0x80u);
    EXPECT_EQ(s.topGadgets[0].bytesTransmitted, 16u);
    EXPECT_EQ(s.topGadgets[0].func, kF);
    EXPECT_EQ(s.topGadgets[0].entryFunc, kEntry);
    EXPECT_EQ(s.topGadgets[1].pc, 0x90u);
}

TEST(LeakLedger, ResetClearsEverythingButKeepsWiring)
{
    LeakLedger l;
    l.setClassifier([](Addr, FuncId, Asid, Cycle) {
        return SecretVerdict{};
    });
    std::uint8_t a = addSource(l);
    l.noteTransmission(std::uint64_t{1} << a,
                       LeakChannel::TlbFill, 0x80, kF);
    l.reset();
    EXPECT_TRUE(l.summary().empty());
    EXPECT_TRUE(l.armed()); // wiring survives the per-run reset
}
