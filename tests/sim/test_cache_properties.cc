/**
 * @file
 * Parameterized property sweeps over cache geometries: containment,
 * LRU, capacity, and flush invariants must hold for every (size,
 * associativity) combination, and the shift/mask-indexed, one-walk
 * model must match a division-indexed reference that walks the set
 * separately for every lookup, fill and flush.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/cache.hh"

using namespace perspective::sim;

namespace
{

/**
 * The straightforward cache the real one is checked against: set and
 * tag by division, a valid bit per line, and a fresh set walk for
 * every lookup, fill and flush (a fill walks twice: presence, then
 * victim). Same replacement rule: the first invalid way, else the
 * least recently used.
 */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &p)
        : p_(p), sets_(p.size_bytes / (p.line_bytes * p.assoc)),
          lines_(std::size_t{sets_} * p.assoc)
    {
    }

    bool
    access(Addr a)
    {
        if (Line *l = find(a)) {
            l->lru = ++clock_;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    bool probe(Addr a) { return find(a) != nullptr; }

    void
    fill(Addr a)
    {
        if (Line *l = find(a)) {
            l->lru = ++clock_;
            return;
        }
        Line *set = &lines_[(a / p_.line_bytes) % sets_ * p_.assoc];
        Line *victim = nullptr;
        for (unsigned w = 0; w < p_.assoc; ++w) {
            Line &l = set[w];
            if (!victim ||
                (victim->valid && (!l.valid || l.lru < victim->lru)))
                victim = &l;
        }
        victim->valid = true;
        victim->tag = a / p_.line_bytes;
        victim->lru = ++clock_;
        ++contentGen;
    }

    void
    flush(Addr a)
    {
        if (Line *l = find(a)) {
            l->valid = false;
            ++contentGen;
        }
    }

    void
    flushAll()
    {
        for (Line &l : lines_)
            l.valid = false;
        ++contentGen;
    }

    const CacheParams &params() const { return p_; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t contentGen = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    Line *
    find(Addr a)
    {
        Line *set = &lines_[(a / p_.line_bytes) % sets_ * p_.assoc];
        for (unsigned w = 0; w < p_.assoc; ++w) {
            if (set[w].valid && set[w].tag == a / p_.line_bytes)
                return &set[w];
        }
        return nullptr;
    }

    CacheParams p_;
    unsigned sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

/** The hierarchy's demand path, written out over reference caches
 * exactly as it read before the walks were merged. */
struct RefHierarchy
{
    RefCache l1i, l1d, l2;
    Cycle dram;

    Cycle
    access(RefCache &l1, Addr a)
    {
        if (l1.access(a))
            return l1.params().hit_latency;
        Cycle lat = l1.params().hit_latency + l2.params().hit_latency;
        if (!l2.access(a)) {
            lat += dram;
            l2.fill(a);
        }
        l1.fill(a);
        Addr next = a + l1.params().line_bytes; // next-line prefetch
        if (!l1.probe(next)) {
            l2.fill(next);
            l1.fill(next);
        }
        return lat;
    }
};

/** splitmix64, so every geometry replays a fixed operation stream. */
struct Rng
{
    std::uint64_t s;

    std::uint64_t
    operator()(std::uint64_t bound)
    {
        s += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return (z ^ (z >> 31)) % bound;
    }
};

/** An address that mostly lands in a few sets with more distinct
 * lines than ways (so victims are chosen all the time), sometimes
 * anywhere in a span of twice the capacity, at any byte offset. */
Addr
randomAddr(Rng &rng, const CacheParams &p)
{
    const std::uint64_t sets = p.size_bytes / (p.line_bytes * p.assoc);
    std::uint64_t line;
    if (rng(4) != 0) {
        line = rng(2 * p.assoc + 2) * sets + rng(sets < 4 ? sets : 4);
    } else {
        line = rng(2 * p.size_bytes / p.line_bytes);
    }
    return line * p.line_bytes + rng(p.line_bytes);
}

struct CacheGeometry
    : ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
    CacheParams
    params() const
    {
        auto [size_kb, assoc] = GetParam();
        return {"p", size_kb * 1024, 64, assoc, 2};
    }
};

} // namespace

TEST_P(CacheGeometry, FillThenProbeAlwaysHits)
{
    Cache c(params());
    for (Addr a = 0; a < 64 * 1024; a += 4096) {
        c.fill(a);
        EXPECT_TRUE(c.probe(a)) << a;
    }
}

TEST_P(CacheGeometry, CapacityIsRespected)
{
    CacheParams p = params();
    Cache c(p);
    unsigned lines = p.size_bytes / p.line_bytes;
    // Fill twice the capacity with distinct lines...
    for (unsigned i = 0; i < 2 * lines; ++i)
        c.fill(Addr{i} * p.line_bytes);
    // ...then at most `lines` of them can be resident.
    unsigned resident = 0;
    for (unsigned i = 0; i < 2 * lines; ++i) {
        if (c.probe(Addr{i} * p.line_bytes))
            ++resident;
    }
    EXPECT_LE(resident, lines);
    EXPECT_GT(resident, lines / 2); // and not pathologically few
}

TEST_P(CacheGeometry, MostRecentLineSurvivesConflictPressure)
{
    CacheParams p = params();
    Cache c(p);
    unsigned sets = p.size_bytes / (p.line_bytes * p.assoc);
    Addr way_stride = Addr{sets} * p.line_bytes;
    // Touch assoc+2 conflicting lines; the most recent must survive.
    Addr last = 0;
    for (unsigned w = 0; w < p.assoc + 2; ++w) {
        last = Addr{w} * way_stride;
        c.fill(last);
    }
    EXPECT_TRUE(c.probe(last));
}

TEST_P(CacheGeometry, FlushAllEmptiesEverything)
{
    CacheParams p = params();
    Cache c(p);
    for (unsigned i = 0; i < 128; ++i)
        c.fill(Addr{i} * p.line_bytes);
    c.flushAll();
    for (unsigned i = 0; i < 128; ++i)
        EXPECT_FALSE(c.probe(Addr{i} * p.line_bytes));
}

TEST_P(CacheGeometry, AccessCountsAreConsistent)
{
    Cache c(params());
    std::uint64_t expected_hits = 0, expected_misses = 0;
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < 8; ++i) {
            Addr a = Addr{i} * 64;
            bool hit = c.probe(a); // ground truth before access
            if (c.access(a)) {
                EXPECT_TRUE(hit);
                ++expected_hits;
            } else {
                EXPECT_FALSE(hit);
                ++expected_misses;
                c.fill(a);
            }
        }
    }
    EXPECT_EQ(c.hits(), expected_hits);
    EXPECT_EQ(c.misses(), expected_misses);
}

TEST_P(CacheGeometry, MatchesDivisionIndexedReference)
{
    const CacheParams p = params();
    Cache c(p);
    RefCache ref(p);
    Rng rng{p.size_bytes * 131 + p.assoc};
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr a = randomAddr(rng, p);
        switch (rng(16)) {
          case 0:
          case 1:
          case 2:
          case 3:
          case 4:
            ASSERT_EQ(c.access(a), ref.access(a)) << "op " << i;
            break;
          case 5:
          case 6:
          case 7:
          case 8:
            c.fill(a);
            ref.fill(a);
            break;
          case 9:
          case 10:
          case 11:
          case 12:
            ASSERT_EQ(c.probe(a), ref.probe(a)) << "op " << i;
            break;
          case 13:
          case 14: {
            // The merged path: a missing access fills the way its own
            // walk chose.
            Cache::Miss miss;
            const bool hit = c.access(a, miss);
            ASSERT_EQ(hit, ref.access(a)) << "op " << i;
            if (!hit) {
                c.install(miss);
                ref.fill(a);
            }
            break;
          }
          default:
            if (rng(64) == 0) {
                c.flushAll();
                ref.flushAll();
            } else {
                c.flush(a);
                ref.flush(a);
            }
            break;
        }
        ASSERT_EQ(*c.contentGenPtr(), ref.contentGen) << "op " << i;
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.misses, 0u);
}

TEST_P(CacheGeometry, HierarchyMatchesSeparateWalkReference)
{
    // The geometry under test is the L1D; the L2 is 4x larger with
    // twice the ways (at least 2), the L1I a quarter-size direct map.
    const CacheParams d = params();
    const CacheParams l2p{"l2", d.size_bytes * 4, d.line_bytes,
                          d.assoc * 2, 8};
    const CacheParams ip{"l1i", d.size_bytes / 4, d.line_bytes, 1, 2};
    CacheHierarchy h(ip, d, l2p, 100);
    RefHierarchy ref{RefCache(ip), RefCache(d), RefCache(l2p), 100};
    Rng rng{d.size_bytes * 7 + d.assoc + 1};
    for (unsigned i = 0; i < 20000; ++i) {
        const Addr a = randomAddr(rng, l2p);
        switch (rng(8)) {
          case 0:
            ASSERT_EQ(h.accessInst(a), ref.access(ref.l1i, a))
                << "op " << i;
            break;
          case 1:
            ASSERT_EQ(h.probeLatency(a) == d.hit_latency,
                      ref.l1d.probe(a))
                << "op " << i;
            break;
          case 2:
            if (rng(8) == 0) {
                h.flush(a);
                ref.l1i.flush(a);
                ref.l1d.flush(a);
                ref.l2.flush(a);
                break;
            }
            [[fallthrough]];
          default:
            ASSERT_EQ(h.accessData(a), ref.access(ref.l1d, a))
                << "op " << i;
            break;
        }
    }
    EXPECT_EQ(h.l1d().hits(), ref.l1d.hits);
    EXPECT_EQ(h.l1d().misses(), ref.l1d.misses);
    EXPECT_EQ(h.l1i().hits(), ref.l1i.hits);
    EXPECT_EQ(h.l1i().misses(), ref.l1i.misses);
    EXPECT_EQ(h.l2().hits(), ref.l2.hits);
    EXPECT_EQ(h.l2().misses(), ref.l2.misses);
    EXPECT_EQ(*h.l1d().contentGenPtr(), ref.l1d.contentGen);
    EXPECT_EQ(*h.l1i().contentGenPtr(), ref.l1i.contentGen);
    EXPECT_EQ(*h.l2().contentGenPtr(), ref.l2.contentGen);
    EXPECT_GT(ref.l2.misses, 0u);
}

TEST(CacheGeometryCheck, RejectsNonPowerOfTwoIndexing)
{
    // 12 KiB of 64 B lines, 4 ways: 48 sets.
    EXPECT_THROW(Cache({"sets", 12 * 1024, 64, 4, 2}),
                 std::invalid_argument);
    // 48 B lines.
    EXPECT_THROW(Cache({"line", 48 * 64, 48, 1, 2}),
                 std::invalid_argument);
    // Size not a whole number of sets.
    EXPECT_THROW(Cache({"ragged", 1000, 64, 2, 2}),
                 std::invalid_argument);
    EXPECT_THROW(Cache({"empty", 0, 64, 2, 2}), std::invalid_argument);
    // Associativity itself need not be a power of two: 3 ways x 4 sets.
    EXPECT_NO_THROW(Cache({"3way", 3 * 4 * 64, 64, 3, 2}));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(4u, 8u, 32u, 64u),
                       ::testing::Values(1u, 2u, 4u, 8u)));
