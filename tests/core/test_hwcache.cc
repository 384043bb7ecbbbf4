#include <gtest/gtest.h>

#include <type_traits>

#include "core/hwcache.hh"

using namespace perspective::core;
using perspective::sim::Addr;

namespace
{

constexpr Addr kPc = 0xffff'8000'0000'1000;
constexpr Addr kPage = 0xffff'c000'0000'2000;

IsvRegionBits
allowAll()
{
    IsvRegionBits b;
    b.bits = {~0ull, ~0ull};
    return b;
}

} // namespace

TEST(IsvCache, MissThenHit)
{
    IsvCache c;
    EXPECT_FALSE(c.lookup(kPc, 1).hit);
    c.fill(kPc, 1, allowAll());
    auto r = c.lookup(kPc, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.allow);
}

TEST(IsvCache, PerInstructionBits)
{
    IsvCache c;
    IsvRegionBits b;
    b.set(0);
    b.set(5);
    Addr base = kPc & ~Addr{511};
    c.fill(base, 1, b);
    EXPECT_TRUE(c.lookup(base, 1).allow);
    EXPECT_FALSE(c.lookup(base + 4, 1).allow);
    EXPECT_TRUE(c.lookup(base + 5 * 4, 1).allow);
}

TEST(IsvCache, AsidTaggingIsolatesContexts)
{
    IsvCache c;
    c.fill(kPc, 1, allowAll());
    EXPECT_TRUE(c.lookup(kPc, 1).hit);
    EXPECT_FALSE(c.lookup(kPc, 2).hit);
}

TEST(IsvCache, InFlightFillStillMisses)
{
    IsvCache c;
    c.fill(kPc, 1, allowAll(), /*ready_at=*/100);
    EXPECT_FALSE(c.lookup(kPc, 1, /*now=*/50).hit);
    EXPECT_TRUE(c.lookup(kPc, 1, /*now=*/100).hit);
}

TEST(IsvCache, InvalidateAsidDropsOnlyThatContext)
{
    IsvCache c;
    c.fill(kPc, 1, allowAll());
    c.fill(kPc, 2, allowAll());
    c.invalidateAsid(1);
    EXPECT_FALSE(c.lookup(kPc, 1).hit);
    EXPECT_TRUE(c.lookup(kPc, 2).hit);
}

TEST(IsvCache, HitRateAccounting)
{
    IsvCache c;
    (void)c.lookup(kPc, 1);
    c.fill(kPc, 1, allowAll());
    (void)c.lookup(kPc, 1);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
}

TEST(IsvCache, UncountedLookupLeavesStats)
{
    IsvCache c;
    c.fill(kPc, 1, allowAll());
    (void)c.lookup(kPc, 1, 0, /*count=*/false);
    EXPECT_EQ(c.hits(), 0u);
}

TEST(DsvCache, MissFillHit)
{
    DsvCache c;
    EXPECT_FALSE(c.lookup(kPage, 1).hit);
    c.fill(kPage, 1, true);
    auto r = c.lookup(kPage + 0x123, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.allow);
}

TEST(DsvCache, NegativeEntryBlocks)
{
    DsvCache c;
    c.fill(kPage, 1, false);
    auto r = c.lookup(kPage, 1);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.allow);
}

TEST(DsvCache, PageInvalidationShootsDownAllAsids)
{
    DsvCache c;
    c.fill(kPage, 1, true);
    c.fill(kPage, 2, false);
    c.shootdown(kPage + 8);
    EXPECT_FALSE(c.lookup(kPage, 1).hit);
    EXPECT_FALSE(c.lookup(kPage, 2).hit);
}

TEST(DsvCache, DistinctPagesCoexist)
{
    DsvCache c;
    c.fill(kPage, 1, true);
    c.fill(kPage + 0x1000, 1, false);
    EXPECT_TRUE(c.lookup(kPage, 1).allow);
    EXPECT_FALSE(c.lookup(kPage + 0x1000, 1).allow);
}

namespace
{

/** Replacement within one set of a two-set, 4-way view cache: keys
 * two granules apart share a set. */
template <typename Cache>
struct ViewCacheReplacement : ::testing::Test
{
    static constexpr std::uint32_t kAssoc = 4;
    Cache c{2 * kAssoc, kAssoc};

    static Addr
    key(unsigned i)
    {
        return kPage + Addr{i} * 2 * Cache::kGranuleBytes;
    }

    static auto
    payload()
    {
        if constexpr (std::is_same_v<Cache, IsvCache>)
            return allowAll();
        else
            return true;
    }

    void
    fill(unsigned i)
    {
        c.fill(key(i), 1, payload());
    }

    bool
    present(unsigned i)
    {
        return c.lookup(key(i), 1, 0, false).hit;
    }

    void
    fillWays()
    {
        for (unsigned i = 0; i < kAssoc; ++i)
            fill(i);
    }
};

using ViewCaches = ::testing::Types<IsvCache, DsvCache>;
TYPED_TEST_SUITE(ViewCacheReplacement, ViewCaches);

} // namespace

TYPED_TEST(ViewCacheReplacement, InvalidWayFirstThenOldestStamp)
{
    // A set's free ways fill before anything is evicted.
    this->fillWays();
    for (unsigned i = 0; i < this->kAssoc; ++i)
        EXPECT_TRUE(this->present(i)) << i;

    // A shot-down way is taken before the oldest stamp (key 0)...
    this->c.shootdown(this->key(1));
    this->fill(4);
    EXPECT_TRUE(this->present(0));
    EXPECT_FALSE(this->present(1));
    EXPECT_TRUE(this->present(4));

    // ...and once the set is full again, the oldest stamp goes.
    this->fill(5);
    EXPECT_FALSE(this->present(0));
    for (unsigned i : {2u, 3u, 4u, 5u})
        EXPECT_TRUE(this->present(i)) << i;
}

TYPED_TEST(ViewCacheReplacement, DeferredLookupsKeepFillOrder)
{
    // Lookups never touch the stamps (Section 6.2's deferred touch is
    // not modeled): a hit on the oldest fill does not save it.
    this->fillWays();
    EXPECT_TRUE(this->c.lookup(this->key(0), 1).hit);
    this->fill(4);
    EXPECT_FALSE(this->present(0));
    EXPECT_TRUE(this->present(1));
}
