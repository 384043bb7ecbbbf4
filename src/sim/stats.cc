#include "stats.hh"

#include <algorithm>

namespace perspective::sim
{

std::pair<std::uint64_t, std::uint64_t>
Histogram::bucketRange(unsigned b)
{
    if (b == 0)
        return {0, 0};
    std::uint64_t lo = std::uint64_t{1} << (b - 1);
    std::uint64_t hi = b >= 64
                           ? std::numeric_limits<std::uint64_t>::max()
                           : (std::uint64_t{1} << b) - 1;
    return {lo, hi};
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(min());
    if (p >= 100.0)
        return static_cast<double>(max());

    // 0-based continuous rank; walk buckets and interpolate linearly
    // inside the containing one, clamping bucket edges to the exact
    // observed range so tails never extrapolate past min/max.
    double rank = p / 100.0 * static_cast<double>(count_ - 1);
    std::uint64_t cum = 0;
    for (unsigned b = 0; b < kNumBuckets; ++b) {
        std::uint64_t n = buckets_[b];
        if (n == 0)
            continue;
        if (rank < static_cast<double>(cum + n)) {
            auto [lo, hi] = bucketRange(b);
            lo = std::max(lo, min_);
            hi = std::min(hi, max_);
            double frac =
                (rank - static_cast<double>(cum)) /
                static_cast<double>(n);
            return static_cast<double>(lo) +
                   frac * static_cast<double>(hi - lo);
        }
        cum += n;
    }
    return static_cast<double>(max());
}

} // namespace perspective::sim
