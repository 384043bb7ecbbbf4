/**
 * @file
 * Paged sparse memory: exact byte-address cell semantics, page-table
 * fast path, and the copy-on-write snapshot/restore contract the
 * boot-image cache and experiment snapshots build on.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "sim/memory.hh"

using namespace perspective::sim;

// A copy would share pages while its source's write cache still
// points at one of them; pages are shared only through Snapshot.
static_assert(!std::is_copy_constructible_v<Memory>);
static_assert(!std::is_copy_assignable_v<Memory>);

TEST(Memory, UnwrittenReadsZero)
{
    Memory m;
    EXPECT_EQ(m.read(0), 0u);
    EXPECT_EQ(m.read(0xdeadbeef), 0u);
    EXPECT_EQ(m.read(0x1000), 0u);
}

TEST(Memory, DistinctByteAddressesAreIndependentCells)
{
    // Like the original word map: addr 0 and addr 4 do not alias.
    Memory m;
    m.write(0x1000, 1);
    m.write(0x1004, 2);
    m.write(0x1008, 3);
    EXPECT_EQ(m.read(0x1000), 1u);
    EXPECT_EQ(m.read(0x1004), 2u);
    EXPECT_EQ(m.read(0x1008), 3u);
    EXPECT_EQ(m.read(0x1002), 0u);
    EXPECT_EQ(m.read(0x1010), 0u);
}

TEST(Memory, SamePageManyWords)
{
    Memory m;
    for (Addr a = 0; a < 4096; a += 8)
        m.write(0x40000 + a, a + 1);
    for (Addr a = 0; a < 4096; a += 8)
        EXPECT_EQ(m.read(0x40000 + a), a + 1);
    EXPECT_EQ(m.read(0x3fff8), 0u);
    EXPECT_EQ(m.read(0x41000), 0u);
}

TEST(Memory, OverwriteDoesNotGrowFootprint)
{
    Memory m;
    m.write(0x2000, 1);
    m.write(0x2000, 2);
    EXPECT_EQ(m.read(0x2000), 2u);
    EXPECT_EQ(m.read(0x1ff8), 0u);
    EXPECT_EQ(m.read(0x2008), 0u);
}

TEST(Memory, CrossPageAccesses)
{
    Memory m;
    // Adjacent words on opposite sides of a page boundary.
    m.write(0x0ff8, 0x11);
    m.write(0x1000, 0x22);
    EXPECT_EQ(m.read(0x0ff8), 0x11u);
    EXPECT_EQ(m.read(0x1000), 0x22u);
    // Alternating pages defeats the one-entry lookup cache.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(m.read(0x0ff8), 0x11u);
        EXPECT_EQ(m.read(0x1000), 0x22u);
    }
}

TEST(Memory, SnapshotRestoreRoundTrip)
{
    Memory m;
    m.write(0x1000, 0xaa);
    m.write(0x2004, 0xbb); // unaligned cell
    Memory::Snapshot s = m.snapshot();

    m.write(0x1000, 0xcc);
    m.write(0x3000, 0xdd);
    EXPECT_EQ(m.read(0x1000), 0xccu);

    m.restore(s);
    EXPECT_EQ(m.read(0x1000), 0xaau);
    EXPECT_EQ(m.read(0x2004), 0xbbu);
    EXPECT_EQ(m.read(0x3000), 0u);
    EXPECT_EQ(m.read(0x2000), 0u);
}

TEST(Memory, SnapshotIsIsolatedFromLaterWrites)
{
    // The COW hazard: the snapshot shares pages with the live memory,
    // so post-snapshot writes must clone, not mutate in place — even
    // when the write cache latched the page before the snapshot.
    Memory m;
    m.write(0x1000, 1);
    m.write(0x1008, 2); // write cache now points at this page
    Memory::Snapshot s = m.snapshot();
    m.write(0x1008, 99); // must clone, not write through the cache
    m.write(0x1010, 3);

    Memory other;
    other.restore(s);
    EXPECT_EQ(other.read(0x1000), 1u);
    EXPECT_EQ(other.read(0x1008), 2u);
    EXPECT_EQ(other.read(0x1010), 0u);
}

TEST(Memory, SnapshotSurvivesManyRestores)
{
    Memory m;
    m.write(0x5000, 7);
    Memory::Snapshot s = m.snapshot();
    for (int i = 0; i < 3; ++i) {
        m.restore(s);
        EXPECT_EQ(m.read(0x5000), 7u);
        m.write(0x5000, 100 + i);
        m.write(0x6000, i);
    }
    m.restore(s);
    EXPECT_EQ(m.read(0x5000), 7u);
    EXPECT_EQ(m.read(0x6000), 0u);
}

TEST(Memory, IndependentRestoresDoNotAlias)
{
    // Two memories restored from one snapshot write independently.
    Memory m;
    m.write(0x7000, 42);
    Memory::Snapshot s = m.snapshot();

    Memory a, b;
    a.restore(s);
    b.restore(s);
    a.write(0x7000, 1);
    b.write(0x7000, 2);
    EXPECT_EQ(a.read(0x7000), 1u);
    EXPECT_EQ(b.read(0x7000), 2u);
    EXPECT_EQ(m.read(0x7000), 42u);
}
