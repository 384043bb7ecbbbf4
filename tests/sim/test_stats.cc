#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "sim/stats.hh"

using namespace perspective::sim;

namespace
{
constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();
}

// ---- Counter handles ------------------------------------------------

TEST(Counter, DefaultConstructedIsInvalid)
{
    Counter c;
    EXPECT_FALSE(c.valid());
}

TEST(Counter, HandleAndNameBasedApiShareOneSlot)
{
    StatSet s;
    Counter c = s.counter("committed");
    EXPECT_TRUE(c.valid());
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(s.get("committed"), 5u);
    s.inc("committed", 2);
    EXPECT_EQ(c.value(), 7u);
}

TEST(Counter, HandleSurvivesClear)
{
    // Experiment::run clears stats between warmup and measurement;
    // handles resolved in the Pipeline constructor must stay valid.
    StatSet s;
    Counter c = s.counter("fences");
    c.inc(41);
    s.clear();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(s.get("fences"), 0u);
    c.inc(3);
    EXPECT_EQ(s.get("fences"), 3u);
}

TEST(Counter, CreationIsIdempotent)
{
    StatSet s;
    Counter a = s.counter("x");
    a.inc(2);
    Counter b = s.counter("x");
    b.inc(3);
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(b.value(), 5u);
}

// ---- Lazily bound handles ------------------------------------------

TEST(LazyCounter, KeyAppearsOnlyAtFirstIncrement)
{
    StatSet s;
    LazyCounter c(&s, "l2.data_misses");
    EXPECT_EQ(s.all().count("l2.data_misses"), 0u);
    c.inc();
    c.inc(2);
    ASSERT_EQ(s.all().count("l2.data_misses"), 1u);
    EXPECT_EQ(s.get("l2.data_misses"), 3u);
}

TEST(LazyCounter, BindsOnceAndSurvivesClear)
{
    StatSet s;
    LazyCounter c(&s, "kernel_entries");
    c.inc();
    std::uint64_t bound = s.nameLookups();
    s.clear();
    c.inc(5);
    c.inc();
    EXPECT_EQ(s.nameLookups(), bound);
    EXPECT_EQ(s.get("kernel_entries"), 6u);
}

TEST(LazyHistogram, KeyAppearsOnlyAtFirstSample)
{
    StatSet s;
    LazyHistogram h(&s, "isv_miss_burst");
    EXPECT_EQ(s.allHistograms().count("isv_miss_burst"), 0u);
    h.sample(4);
    std::uint64_t bound = s.nameLookups();
    h.sample(8);
    EXPECT_EQ(s.nameLookups(), bound);
    ASSERT_EQ(s.allHistograms().count("isv_miss_burst"), 1u);
    EXPECT_EQ(s.allHistograms().at("isv_miss_burst").count(), 2u);
}

TEST(StatSet, CountsEveryNameKeyedAccess)
{
    StatSet s;
    EXPECT_EQ(s.nameLookups(), 0u);
    s.inc("a");
    (void)s.get("a");
    (void)s.counter("b");
    (void)s.histogram("h");
    EXPECT_EQ(s.nameLookups(), 4u);
    // Reads of the whole set are not lookups.
    (void)s.all();
    EXPECT_EQ(s.nameLookups(), 4u);
}

// ---- Histogram ------------------------------------------------------

TEST(Histogram, EmptyReportsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, BucketOfPowersOfTwo)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf(std::uint64_t{1} << 63), 64u);
    EXPECT_EQ(Histogram::bucketOf(kU64Max), 64u);
}

TEST(Histogram, BucketRangesTileTheDomain)
{
    EXPECT_EQ(Histogram::bucketRange(0),
              (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
    EXPECT_EQ(Histogram::bucketRange(1),
              (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
    EXPECT_EQ(Histogram::bucketRange(3),
              (std::pair<std::uint64_t, std::uint64_t>{4, 7}));
    auto [lo, hi] = Histogram::bucketRange(64);
    EXPECT_EQ(lo, std::uint64_t{1} << 63);
    EXPECT_EQ(hi, kU64Max);
    // Consecutive buckets leave no gap.
    for (unsigned b = 0; b + 1 < Histogram::kNumBuckets; ++b)
        EXPECT_EQ(Histogram::bucketRange(b).second + 1,
                  Histogram::bucketRange(b + 1).first)
            << "gap after bucket " << b;
}

TEST(Histogram, ZeroSampleLandsInBucketZero)
{
    Histogram h;
    h.sample(0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, MaxU64DoesNotOverflow)
{
    Histogram h;
    h.sample(kU64Max);
    EXPECT_EQ(h.bucket(64), 1u);
    EXPECT_EQ(h.max(), kU64Max);
    EXPECT_DOUBLE_EQ(h.percentile(100),
                     static_cast<double>(kU64Max));
}

TEST(Histogram, SingleSampleAllPercentilesEqualIt)
{
    Histogram h;
    h.sample(42);
    EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
    EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, PercentileClampsToObservedRange)
{
    Histogram h;
    h.sample(5); // bucket 3 covers [4, 7]; observed range is [5, 6]
    h.sample(6);
    EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 6.0);
    EXPECT_GE(h.percentile(50), 5.0);
    EXPECT_LE(h.percentile(50), 6.0);
}

TEST(Histogram, PercentileInterpolatesWithinABucket)
{
    // Four samples fill bucket 3's exact range [4, 7]: the 0-based
    // continuous p50 rank is 1.5 of 4, i.e. 4 + (1.5/4) * 3 = 5.125.
    Histogram h;
    for (std::uint64_t v = 4; v <= 7; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.125);
    EXPECT_DOUBLE_EQ(h.percentile(0), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 7.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(Histogram, PercentileWalksAcrossBuckets)
{
    // {1, 2, 3, 4}: p50 rank 1.5 falls in bucket 2 ([2, 3]) after one
    // sample in bucket 1, interpolating to 2 + (0.5/2) * 1 = 2.25.
    Histogram h;
    for (std::uint64_t v = 1; v <= 4; ++v)
        h.sample(v);
    EXPECT_DOUBLE_EQ(h.percentile(50), 2.25);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 4.0);
}

TEST(Histogram, WeightedSamplesCountMultiply)
{
    Histogram h;
    h.sample(10, 3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, ClearEmptiesEverything)
{
    Histogram h;
    h.sample(3);
    h.sample(300);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    h.sample(9);
    EXPECT_EQ(h.min(), 9u);
    EXPECT_EQ(h.max(), 9u);
}

// ---- StatSet integration -------------------------------------------

TEST(StatSet, HistogramAndSeriesReferencesSurviveClear)
{
    StatSet s;
    Histogram &h = s.histogram("lat");
    h.sample(12);
    s.clear();
    EXPECT_EQ(h.count(), 0u);
    h.sample(5);
    EXPECT_EQ(s.allHistograms().at("lat").count(), 1u);
}
