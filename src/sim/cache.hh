/**
 * @file
 * Set-associative cache model with LRU replacement, plus a small
 * hierarchy (L1I, L1D, shared L2, DRAM) matching Table 7.1 of the
 * paper. The model is tag-only: it tracks which lines are present and
 * charges latency; data values live in sim::Memory.
 *
 * Crucially, speculative (later-squashed) accesses still install lines;
 * this is the microarchitectural state transient-execution attacks
 * exfiltrate through.
 */

#ifndef PERSPECTIVE_SIM_CACHE_HH
#define PERSPECTIVE_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hh"
#include "types.hh"

namespace perspective::sim
{

/** Geometry and timing of one cache level. line_bytes and the set
 * count (size_bytes / (line_bytes * assoc)) must be powers of two;
 * see Cache. */
struct CacheParams
{
    std::string name;
    std::uint32_t size_bytes = 32 * 1024;
    std::uint32_t line_bytes = 64;
    std::uint32_t assoc = 8;
    Cycle hit_latency = 2; ///< round-trip cycles on a hit
};

/**
 * One level of cache. Lookup and fill are separate so callers can
 * model "probe without disturbing" (flush+reload timing reads) as well
 * as normal allocating accesses.
 *
 * The line size and the set count must be powers of two (the index
 * is a shift and a mask); the constructor rejects any other geometry
 * with std::invalid_argument, in every build type.
 */
class Cache
{
    struct Line;

  public:
    explicit Cache(const CacheParams &params);

    /**
     * The way a fill would replace, found by the set walk that
     * missed. Passing it to install() fills the line without walking
     * the set again. It stays valid until the next operation on this
     * cache (operations on other caches do not disturb it).
     */
    class Miss
    {
        friend class Cache;
        Line *victim = nullptr;
        std::uint64_t tag = 0;
    };

    /** True if the line containing @p addr is present; updates LRU. */
    bool access(Addr addr);
    /** access() that, on a miss, records the victim in @p miss. */
    bool access(Addr addr, Miss &miss);

    /** True if present; does not update replacement state. */
    bool probe(Addr addr) const;
    /** probe() that, on a miss, records the victim in @p miss. */
    bool probe(Addr addr, Miss &miss);

    /** Install the line containing @p addr (evicting LRU). */
    void fill(Addr addr);
    /** Install the line a miss walked for, into the way it chose. */
    void install(const Miss &miss);

    /** Remove the line containing @p addr if present (clflush). */
    void flush(Addr addr);

    /** Remove every line (e.g. L1D flush mitigations). */
    void flushAll();

    const CacheParams &params() const { return params_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Generation counter of the cache's *content*: ticks on every
     * line install, eviction and flush, but never on an LRU-only
     * touch (which cannot change what probe() returns). Blocked
     * loads gated on presence (DOM) wake off this instead of
     * re-probing every cycle. */
    const std::uint64_t *contentGenPtr() const { return &contentGen_; }

  private:
    /** A valid line's tag is its line address with this bit set (a
     * line address is an address shifted right by at least one bit,
     * so the bit is free); tag 0 is an invalid line, which makes a
     * zero-filled array an empty cache. */
    static constexpr std::uint64_t kValid = std::uint64_t{1} << 63;
    static constexpr std::uint64_t kInvalid = 0;

    struct Line
    {
        std::uint64_t tag = kInvalid;
        std::uint64_t lru = 0; ///< higher == more recently used
    };

    std::uint64_t
    tagOf(Addr addr) const
    {
        return (addr >> lineShift_) | kValid;
    }
    Line *setOf(std::uint64_t tag)
    {
        return &lines_[(tag & setMask_) * params_.assoc];
    }
    const Line *setOf(std::uint64_t tag) const
    {
        return &lines_[(tag & setMask_) * params_.assoc];
    }

    /** The one set walk: the line holding @p tag, or nullptr with
     * @p miss set to the way a fill replaces (the first invalid way,
     * else the least recently used). Never touches LRU. */
    Line *walk(std::uint64_t tag, Miss &miss);

    CacheParams params_;
    unsigned lineShift_ = 0;
    std::uint64_t setMask_ = 0;
    std::vector<Line> lines_; ///< sets * assoc, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t contentGen_ = 0;
};

/**
 * The stat handles a demand access through CacheHierarchy bumps. The
 * caller (the Pipeline) owns them, not the hierarchy, and passes them
 * only for the accesses it counts: warm-phase and PoC accesses pass
 * none and go uncounted. Each binds on its first event, so a cell
 * where it never fires reports no such key.
 */
struct CacheCounters
{
    explicit CacheCounters(StatSet &stats)
        : l1dAccesses(&stats, "l1d.accesses"),
          l1dMisses(&stats, "l1d.misses"),
          l1dPrefetches(&stats, "l1d.prefetches"),
          l2DataMisses(&stats, "l2.data_misses"),
          l1iAccesses(&stats, "l1i.accesses"),
          l1iMisses(&stats, "l1i.misses"),
          l1iPrefetches(&stats, "l1i.prefetches")
    {
    }

    LazyCounter l1dAccesses;
    LazyCounter l1dMisses;
    LazyCounter l1dPrefetches;
    LazyCounter l2DataMisses;
    LazyCounter l1iAccesses;
    LazyCounter l1iMisses;
    LazyCounter l1iPrefetches;
};

/**
 * Two-level hierarchy with a DRAM backstop. Returns the total
 * round-trip latency of a demand access and installs lines on the way
 * up, as a non-inclusive hierarchy would.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheParams &l1i, const CacheParams &l1d,
                   const CacheParams &l2, Cycle dram_latency);

    /** Data access: charge latency, install in L1D/L2; counts into
     * @p ctrs when given. */
    Cycle accessData(Addr addr, CacheCounters *ctrs = nullptr);

    /** Instruction fetch access through L1I/L2. */
    Cycle accessInst(Addr addr, CacheCounters *ctrs = nullptr);

    /** True if @p addr hits in L1D without touching LRU/contents. */
    bool probeL1D(Addr addr) const { return l1d_.probe(addr); }

    /** Timing-only probe used by covert-channel receivers. */
    Cycle probeLatency(Addr addr) const;

    /** clflush semantics across all levels. */
    void flush(Addr addr);

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Cycle dramLatency() const { return dramLatency_; }

  private:
    /** The L2 leg of an L1 miss: one walk, filling the L2 on a
     * miss. True on an L2 hit. */
    bool accessL2(Addr addr);
    /** Next-line prefetch after an L1 miss on @p addr: when the next
     * line is absent from @p l1, fill it through the L2. True when
     * it was absent. */
    bool prefetchInto(Cache &l1, Addr addr);

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cycle dramLatency_;
};

/** The Table 7.1 configuration. */
CacheParams defaultL1I();
CacheParams defaultL1D();
CacheParams defaultL2();

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_CACHE_HH
