#include "cache.hh"

#include <bit>
#include <stdexcept>
#include <string>

namespace perspective::sim
{

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    const std::uint64_t way_bytes =
        std::uint64_t{params_.line_bytes} * params_.assoc;
    if (params_.line_bytes < 2 || !std::has_single_bit(params_.line_bytes) ||
        way_bytes == 0 || params_.size_bytes % way_bytes != 0 ||
        !std::has_single_bit(params_.size_bytes / way_bytes)) {
        throw std::invalid_argument(
            "cache '" + params_.name + "': " +
            std::to_string(params_.size_bytes) + " B, " +
            std::to_string(params_.line_bytes) + " B lines, " +
            std::to_string(params_.assoc) +
            " ways: the line size and the set count must be powers "
            "of two");
    }
    const std::uint64_t sets = params_.size_bytes / way_bytes;
    lineShift_ = static_cast<unsigned>(
        std::countr_zero(params_.line_bytes));
    setMask_ = sets - 1;
    lines_.resize(sets * params_.assoc);
}

Cache::Line *
Cache::walk(std::uint64_t tag, Miss &miss)
{
    Line *base = setOf(tag);
    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = base[w];
        if (line.tag == tag)
            return &line;
        // Prefer an invalid way; otherwise the least recently used.
        if (victim->tag != kInvalid &&
            (line.tag == kInvalid || line.lru < victim->lru))
            victim = &line;
    }
    miss.victim = victim;
    miss.tag = tag;
    return nullptr;
}

bool
Cache::access(Addr addr)
{
    Miss miss;
    return access(addr, miss);
}

bool
Cache::access(Addr addr, Miss &miss)
{
    if (Line *line = walk(tagOf(addr), miss)) {
        line->lru = ++useClock_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const std::uint64_t tag = tagOf(addr);
    const Line *base = setOf(tag);
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

bool
Cache::probe(Addr addr, Miss &miss)
{
    return walk(tagOf(addr), miss) != nullptr;
}

void
Cache::fill(Addr addr)
{
    Miss miss;
    if (Line *line = walk(tagOf(addr), miss)) {
        line->lru = ++useClock_;
        return; // already present
    }
    install(miss);
}

void
Cache::install(const Miss &miss)
{
    miss.victim->tag = miss.tag;
    miss.victim->lru = ++useClock_;
    ++contentGen_;
}

void
Cache::flush(Addr addr)
{
    Miss miss;
    if (Line *line = walk(tagOf(addr), miss)) {
        line->tag = kInvalid;
        ++contentGen_;
    }
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.tag = kInvalid;
    ++contentGen_;
}

CacheHierarchy::CacheHierarchy(const CacheParams &l1i,
                               const CacheParams &l1d,
                               const CacheParams &l2,
                               Cycle dram_latency)
    : l1i_(l1i), l1d_(l1d), l2_(l2), dramLatency_(dram_latency)
{
}

Cycle
CacheHierarchy::accessData(Addr addr, CacheCounters *ctrs)
{
    if (ctrs)
        ctrs->l1dAccesses.inc();
    Cache::Miss miss;
    if (l1d_.access(addr, miss))
        return l1d_.params().hit_latency;
    Cycle latency = l1d_.params().hit_latency + l2_.params().hit_latency;
    if (!accessL2(addr)) {
        latency += dramLatency_;
        if (ctrs)
            ctrs->l2DataMisses.inc();
    }
    l1d_.install(miss);
    if (ctrs)
        ctrs->l1dMisses.inc();
    // Next-line prefetcher (Table 7.1): a demand miss triggers a
    // background fill of the following line. No latency is charged —
    // the prefetch overlaps with the demand access.
    if (prefetchInto(l1d_, addr) && ctrs)
        ctrs->l1dPrefetches.inc();
    return latency;
}

Cycle
CacheHierarchy::accessInst(Addr addr, CacheCounters *ctrs)
{
    if (ctrs)
        ctrs->l1iAccesses.inc();
    Cache::Miss miss;
    if (l1i_.access(addr, miss))
        return l1i_.params().hit_latency;
    Cycle latency = l1i_.params().hit_latency + l2_.params().hit_latency;
    if (!accessL2(addr))
        latency += dramLatency_;
    l1i_.install(miss);
    if (ctrs)
        ctrs->l1iMisses.inc();
    if (prefetchInto(l1i_, addr) && ctrs)
        ctrs->l1iPrefetches.inc();
    return latency;
}

bool
CacheHierarchy::accessL2(Addr addr)
{
    Cache::Miss miss;
    if (l2_.access(addr, miss))
        return true;
    l2_.install(miss);
    return false;
}

bool
CacheHierarchy::prefetchInto(Cache &l1, Addr addr)
{
    Addr next = addr + l1.params().line_bytes;
    Cache::Miss miss;
    if (l1.probe(next, miss))
        return false;
    l2_.fill(next);
    l1.install(miss);
    return true;
}

Cycle
CacheHierarchy::probeLatency(Addr addr) const
{
    if (l1d_.probe(addr))
        return l1d_.params().hit_latency;
    if (l2_.probe(addr))
        return l1d_.params().hit_latency + l2_.params().hit_latency;
    return l1d_.params().hit_latency + l2_.params().hit_latency +
           dramLatency_;
}

void
CacheHierarchy::flush(Addr addr)
{
    l1i_.flush(addr);
    l1d_.flush(addr);
    l2_.flush(addr);
}

CacheParams
defaultL1I()
{
    return {"l1i", 32 * 1024, 64, 4, 2};
}

CacheParams
defaultL1D()
{
    return {"l1d", 32 * 1024, 64, 8, 2};
}

CacheParams
defaultL2()
{
    return {"l2", 2 * 1024 * 1024, 64, 16, 8};
}

} // namespace perspective::sim
