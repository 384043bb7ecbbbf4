/**
 * @file
 * Perspective's two hardware lookup structures (Section 6.2,
 * Table 7.1): the ISV cache and the DSVMT (DSV) cache. Both are
 * 128-entry, 32-set, 4-way, tagged with the ASID so context switches
 * need no flush. On a miss the pipeline conservatively blocks
 * speculation while the fill happens in the background; replacement
 * state is only updated once the instruction reaches its Visibility
 * Point (modeled by the deferLru flag on lookups).
 */

#ifndef PERSPECTIVE_CORE_HWCACHE_HH
#define PERSPECTIVE_CORE_HWCACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace perspective::core
{

/** Result of an ISV/DSV cache lookup. */
struct HwLookup
{
    bool hit = false;
    bool allow = false; ///< valid only when hit
    /** When a matching entry's fill is still in flight (the lookup
     * reported a miss because now < ready_at), the cycle the entry
     * becomes usable; 0 otherwise. Lets a blocked load schedule its
     * re-evaluation instead of polling. */
    sim::Cycle readyAt = 0;
};

/** ISV bits one cache entry carries (a 512-byte code region — 128
 * instructions). The paper's 57-bit entry is the tag/ASID metadata;
 * the payload array rides alongside. */
struct IsvRegionBits
{
    std::array<std::uint64_t, 2> bits{};

    bool
    test(unsigned i) const
    {
        return (bits[i / 64] >> (i % 64)) & 1;
    }
    void
    set(unsigned i)
    {
        bits[i / 64] |= 1ull << (i % 64);
    }
};

/**
 * ISV cache: maps (code-region VA, ASID) to the region's per-
 * instruction ISV bits.
 */
class IsvCache
{
  public:
    /** Bytes of kernel text each entry covers. */
    static constexpr sim::Addr kRegionBytes = 512;

    IsvCache(std::uint32_t entries = 128, std::uint32_t assoc = 4);

    /**
     * Look up instruction @p pc under @p asid at time @p now. An
     * in-flight fill (ready_at in the future) still reports a miss.
     */
    HwLookup lookup(sim::Addr pc, sim::Asid asid, bool defer_lru,
                    sim::Cycle now = 0, bool count = true);

    /** Fill the region containing @p pc with @p bits, usable at
     * @p ready_at (models the TLB+L2 refill latency). A fill already
     * in flight keeps its own ready cycle. Returns the cycle the
     * entry becomes usable. */
    sim::Cycle fill(sim::Addr pc, sim::Asid asid, IsvRegionBits bits,
                    sim::Cycle ready_at = 0);

    /** Drop every entry of @p asid (view reconfigured). */
    void invalidateAsid(sim::Asid asid);
    void invalidateAll();

    /** Zero the hit/miss counters without evicting entries (used to
     * separate warmup from measurement). */
    void
    resetAccounting()
    {
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double
    hitRate() const
    {
        std::uint64_t t = hits_ + misses_;
        return t == 0 ? 0.0 : static_cast<double>(hits_) / t;
    }

    /** Content generation: ticks on every fill and invalidation —
     * anything that can change a lookup's outcome. LRU touches do
     * not tick it. Used as a GateWake source. */
    const std::uint64_t *genPtr() const { return &gen_; }

  private:
    struct Entry
    {
        sim::Addr line = 0;
        sim::Asid asid = 0;
        IsvRegionBits bits;
        bool valid = false;
        std::uint64_t lru = 0;
        sim::Cycle readyAt = 0;
    };

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t gen_ = 0;
};

/**
 * DSVMT cache: maps (data page VA, ASID) to a single in-DSV bit
 * (53-bit entries in the paper's layout).
 */
class DsvCache
{
  public:
    DsvCache(std::uint32_t entries = 128, std::uint32_t assoc = 4);

    HwLookup lookup(sim::Addr va, sim::Asid asid, bool defer_lru,
                    sim::Cycle now = 0, bool count = true);
    /** As IsvCache::fill, for the page containing @p va. */
    sim::Cycle fill(sim::Addr va, sim::Asid asid, bool in_dsv,
                    sim::Cycle ready_at = 0);

    /** Shoot down all entries caching @p page_va (ownership changed —
     * wired to the OwnershipMap listener). */
    void invalidatePage(sim::Addr page_va);
    void invalidateAll();

    /** Zero the hit/miss counters without evicting entries (used to
     * separate warmup from measurement). */
    void
    resetAccounting()
    {
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double
    hitRate() const
    {
        std::uint64_t t = hits_ + misses_;
        return t == 0 ? 0.0 : static_cast<double>(hits_) / t;
    }

    /** Content generation (see IsvCache::genPtr). */
    const std::uint64_t *genPtr() const { return &gen_; }

  private:
    struct Entry
    {
        sim::Addr page = 0;
        sim::Asid asid = 0;
        bool inDsv = false;
        bool valid = false;
        std::uint64_t lru = 0;
        sim::Cycle readyAt = 0;
    };

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t gen_ = 0;
};

} // namespace perspective::core

#endif // PERSPECTIVE_CORE_HWCACHE_HH
