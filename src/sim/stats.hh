/**
 * @file
 * Lightweight named statistics registry, loosely modeled after the gem5
 * stats package: scalar counters and log2-bucketed distributions are
 * created on demand and queried by name at the end of a simulation.
 */

#ifndef PERSPECTIVE_SIM_STATS_HH
#define PERSPECTIVE_SIM_STATS_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perspective::sim
{

/**
 * A cached handle to one named counter inside a StatSet. Hot paths
 * (per-cycle pipeline increments) resolve the name once at
 * construction and then bump through the handle without the
 * string-keyed map lookup StatSet::inc pays. Handles stay valid across
 * StatSet::clear() — clearing zeroes counters in place, it never
 * erases them — and are invalidated only when the owning StatSet is
 * destroyed or assigned over.
 */
class Counter
{
  public:
    Counter() = default;

    void
    inc(std::uint64_t delta = 1)
    {
        *slot_ += delta;
    }

    std::uint64_t value() const { return *slot_; }

    bool valid() const { return slot_ != nullptr; }

  private:
    friend class StatSet;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}
    std::uint64_t *slot_ = nullptr;
};

/**
 * A log2-bucketed distribution of 64-bit samples (gem5's Histogram /
 * Linux's power-of-two latency buckets). Bucket 0 holds the value 0;
 * bucket k (k >= 1) holds values in [2^(k-1), 2^k - 1]. Exact min,
 * max and a running sum ride along so the mean is exact and
 * percentiles can be interpolated inside a bucket and clamped to the
 * observed range.
 */
class Histogram
{
  public:
    /** 0, then one bucket per bit width 1..64. */
    static constexpr unsigned kNumBuckets = 65;

    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        buckets_[bucketOf(value)] += count;
        count_ += count;
        sum_ += static_cast<double>(value) *
                static_cast<double>(count);
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }

    std::uint64_t count() const { return count_; }
    /** Smallest sample; 0 when empty. */
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return count_ == 0 ? 0 : max_; }
    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : sum_ / static_cast<double>(count_);
    }

    /**
     * Percentile @p p in [0, 100], linearly interpolated within the
     * containing log2 bucket and clamped to [min, max] (so p0 == min
     * and p100 == max exactly). Returns 0 for an empty histogram.
     */
    double percentile(double p) const;

    /** Occupancy of bucket @p b (see class comment for ranges). */
    std::uint64_t
    bucket(unsigned b) const
    {
        return buckets_[b];
    }

    /** Which bucket @p value falls into. */
    static unsigned
    bucketOf(std::uint64_t value)
    {
        return value == 0 ? 0u
                          : static_cast<unsigned>(
                                std::bit_width(value));
    }

    /** Inclusive value range covered by bucket @p b. */
    static std::pair<std::uint64_t, std::uint64_t> bucketRange(
        unsigned b);

    /** Drop all samples (structure and name binding survive). */
    void
    clear()
    {
        buckets_.assign(kNumBuckets, 0);
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_ =
        std::vector<std::uint64_t>(kNumBuckets, 0);
    std::uint64_t count_ = 0;
    double sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * A bag of named 64-bit counters and histograms. Each Pipeline owns
 * one; subsystems (caches, predictors, policies) increment counters
 * through it so that experiment harnesses can compute derived
 * metrics such as hit rates or fences-per-kilo-instruction.
 */
class StatSet
{
  public:
    /** Add @p delta to counter @p name, creating it at zero if absent. */
    void
    inc(const std::string &name, std::uint64_t delta = 1)
    {
        ++nameLookups_;
        counters_[name] += delta;
    }

    /**
     * Resolve @p name once and return a stable handle for hot-path
     * increments (see Counter). Creates the counter at zero if
     * absent. The name-based inc()/get() API keeps working for cold
     * paths.
     */
    Counter
    counter(const std::string &name)
    {
        ++nameLookups_;
        return Counter(&counters_[name]);
    }

    /** Named histogram, created empty on first use. */
    Histogram &
    histogram(const std::string &name)
    {
        ++nameLookups_;
        return histograms_[name];
    }

    /** Read counter @p name; absent counters read as zero. */
    std::uint64_t
    get(const std::string &name) const
    {
        ++nameLookups_;
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Ratio helper: get(num) / get(den), 0 when the denominator is 0. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        std::uint64_t d = get(den);
        return d == 0 ? 0.0 : static_cast<double>(get(num)) / d;
    }

    /**
     * Reset every counter to zero and every histogram to empty.
     * Entries are zeroed in place, never erased, so Counter handles
     * and Histogram references stay valid across the warmup/measure
     * reset.
     */
    void
    clear()
    {
        for (auto &[name, value] : counters_)
            value = 0;
        for (auto &[name, h] : histograms_)
            h.clear();
    }

    /** Access the underlying maps (read-only). */
    const std::map<std::string, std::uint64_t> &
    all() const
    {
        return counters_;
    }

    const std::map<std::string, Histogram> &
    allHistograms() const
    {
        return histograms_;
    }

    /**
     * How many name-keyed accesses (inc(name), get, counter,
     * histogram) this set has served. Per-event paths bump through
     * Counter/LazyCounter handles instead; tests use this to pin
     * that no name lookup creeps back into them.
     */
    std::uint64_t nameLookups() const { return nameLookups_; }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
    mutable std::uint64_t nameLookups_ = 0;
};

/**
 * A Counter bound on its first increment. Some stats exist only once
 * their event has fired (a cell with no L2 miss reports no
 * "l2.data_misses" key); binding at first use keeps that key set
 * exactly as a name-keyed inc() would leave it, while every later
 * event bumps through the handle. @p name is kept by pointer, so it
 * must outlive the handle (pass a string literal).
 */
class LazyCounter
{
  public:
    LazyCounter() = default;
    LazyCounter(StatSet *stats, const char *name)
        : stats_(stats), name_(name)
    {
    }

    void
    inc(std::uint64_t delta = 1)
    {
        if (!ctr_.valid()) [[unlikely]]
            ctr_ = stats_->counter(name_);
        ctr_.inc(delta);
    }

  private:
    StatSet *stats_ = nullptr;
    const char *name_ = nullptr;
    Counter ctr_;
};

/** The histogram counterpart of LazyCounter: created, and its name
 * resolved, at the first sample. */
class LazyHistogram
{
  public:
    LazyHistogram() = default;
    LazyHistogram(StatSet *stats, const char *name)
        : stats_(stats), name_(name)
    {
    }

    void
    sample(std::uint64_t value)
    {
        if (!hist_) [[unlikely]]
            hist_ = &stats_->histogram(name_);
        hist_->sample(value);
    }

  private:
    StatSet *stats_ = nullptr;
    const char *name_ = nullptr;
    Histogram *hist_ = nullptr;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_STATS_HH
