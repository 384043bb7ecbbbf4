#include "cache.hh"

#include <cassert>

namespace perspective::sim
{

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    assert(params_.size_bytes % (params_.line_bytes * params_.assoc) == 0);
    numSets_ = params_.size_bytes / (params_.line_bytes * params_.assoc);
    lines_.resize(std::size_t{numSets_} * params_.assoc);
}

std::uint64_t
Cache::lineIndex(Addr addr) const
{
    return (addr / params_.line_bytes) % numSets_;
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return addr / params_.line_bytes;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    std::uint64_t set = lineIndex(addr);
    std::uint64_t tag = tagOf(addr);
    const Line *base = &lines_[set * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    return const_cast<Line *>(
        static_cast<const Cache *>(this)->findLine(addr));
}

bool
Cache::access(Addr addr)
{
    if (Line *line = findLine(addr)) {
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
    return findLine(addr) != nullptr;
}

void
Cache::fill(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->lru = ++useClock_;
        return; // already present
    }
    std::uint64_t set = lineIndex(addr);
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[set * params_.assoc + w];
        // Prefer an invalid way; otherwise the least recently used.
        if (!victim || (victim->valid &&
                        (!line.valid || line.lru < victim->lru))) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->lru = ++useClock_;
    ++contentGen_;
}

void
Cache::flush(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->valid = false;
        ++contentGen_;
    }
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
    ++contentGen_;
}

CacheHierarchy::CacheHierarchy(const CacheParams &l1i,
                               const CacheParams &l1d,
                               const CacheParams &l2,
                               Cycle dram_latency, bool prefetch)
    : l1i_(l1i),
      l1d_(l1d),
      l2_(l2),
      dramLatency_(dram_latency),
      prefetch_(prefetch)
{
}

Cycle
CacheHierarchy::accessData(Addr addr, CacheCounters *ctrs)
{
    if (ctrs)
        ctrs->l1dAccesses.inc();
    if (l1d_.access(addr))
        return l1d_.params().hit_latency;
    Cycle latency = l1d_.params().hit_latency;
    if (l2_.access(addr)) {
        latency += l2_.params().hit_latency;
    } else {
        latency += l2_.params().hit_latency + dramLatency_;
        l2_.fill(addr);
        if (ctrs)
            ctrs->l2DataMisses.inc();
    }
    l1d_.fill(addr);
    if (ctrs)
        ctrs->l1dMisses.inc();
    // Next-line prefetcher (Table 7.1): a demand miss triggers a
    // background fill of the following line. No latency is charged —
    // the prefetch overlaps with the demand access.
    if (prefetch_) {
        Addr next = addr + l1d_.params().line_bytes;
        if (!l1d_.probe(next)) {
            l2_.fill(next);
            l1d_.fill(next);
            if (ctrs)
                ctrs->l1dPrefetches.inc();
        }
    }
    return latency;
}

Cycle
CacheHierarchy::accessInst(Addr addr, CacheCounters *ctrs)
{
    if (ctrs)
        ctrs->l1iAccesses.inc();
    if (l1i_.access(addr))
        return l1i_.params().hit_latency;
    Cycle latency = l1i_.params().hit_latency;
    if (l2_.access(addr)) {
        latency += l2_.params().hit_latency;
    } else {
        latency += l2_.params().hit_latency + dramLatency_;
        l2_.fill(addr);
    }
    l1i_.fill(addr);
    if (ctrs)
        ctrs->l1iMisses.inc();
    if (prefetch_) {
        Addr next = addr + l1i_.params().line_bytes;
        if (!l1i_.probe(next)) {
            l2_.fill(next);
            l1i_.fill(next);
            if (ctrs)
                ctrs->l1iPrefetches.inc();
        }
    }
    return latency;
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
