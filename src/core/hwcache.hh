/**
 * @file
 * Perspective's two hardware lookup structures (Section 6.2,
 * Table 7.1): the ISV cache and the DSVMT (DSV) cache. Both are one
 * ASID-tagged, set-associative ViewCache (128 entries, 32 sets, 4 ways
 * by default), so context switches need no flush. They differ only in
 * the granule an entry covers (a 512-byte code region vs a 4-KB data
 * page) and its payload (128 per-instruction ISV bits vs one in-DSV
 * bit). On a miss the pipeline conservatively blocks speculation while
 * the fill happens in the background.
 *
 * Replacement: a fill takes the set's first invalid way, else the way
 * with the oldest stamp. Only fills stamp their entry; lookups leave
 * the stamps alone (Section 6.2's touch at the Visibility Point is not
 * modeled), so both the detailed path (gateLoad) and functional
 * warming (warmAccess) replace in fill order.
 */

#ifndef PERSPECTIVE_CORE_HWCACHE_HH
#define PERSPECTIVE_CORE_HWCACHE_HH

#include <array>
#include <cassert>
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

/** Verdict of a payload for the byte @p offset into its granule: the
 * ISV bit of the instruction there, or the page's single DSV bit. */
inline bool
viewAllows(const IsvRegionBits &b, sim::Addr offset)
{
    return b.test(static_cast<unsigned>(offset / 4));
}
inline bool
viewAllows(bool in_dsv, sim::Addr)
{
    return in_dsv;
}

/**
 * A view cache: maps (granule of 2^GranuleShift bytes, ASID) to the
 * granule's @p Payload.
 */
template <unsigned GranuleShift, typename Payload>
class ViewCache
{
  public:
    /** Bytes of VA each entry covers. */
    static constexpr sim::Addr kGranuleBytes = sim::Addr{1}
                                               << GranuleShift;

    ViewCache(std::uint32_t entries = 128, std::uint32_t assoc = 4)
        : sets_(entries / assoc), assoc_(assoc), entries_(entries)
    {
        assert(entries % assoc == 0);
    }

    /**
     * Look up @p va under @p asid at time @p now. An in-flight fill
     * (ready_at in the future) still reports a miss.
     */
    HwLookup
    lookup(sim::Addr va, sim::Asid asid, sim::Cycle now = 0,
           bool count = true)
    {
        const sim::Addr key = va >> GranuleShift;
        Entry *e = find(key, asid);
        if (!e || now < e->readyAt) { // absent, or fill in flight
            if (count)
                ++misses_;
            return {false, false, e ? e->readyAt : 0};
        }
        if (count)
            ++hits_;
        return {true, viewAllows(e->payload, va - (key << GranuleShift))};
    }

    /** Fill the granule containing @p va with @p payload, usable at
     * @p ready_at (models the TLB+L2 refill latency). A fill already
     * in flight keeps its own ready cycle. Returns the cycle the
     * entry becomes usable. */
    sim::Cycle
    fill(sim::Addr va, sim::Asid asid, Payload payload,
         sim::Cycle ready_at = 0)
    {
        const sim::Addr key = va >> GranuleShift;
        ++gen_;
        if (Entry *e = find(key, asid)) {
            e->payload = payload;
            return e->readyAt; // already filling or present
        }
        Entry *set = &entries_[(key % sets_) * assoc_];
        Entry *victim = set;
        for (Entry *e = set; e != set + assoc_ && victim->valid; ++e) {
            if (!e->valid || e->lru < victim->lru)
                victim = e;
        }
        *victim = {key, asid, payload, true, ++useClock_, ready_at};
        return ready_at;
    }

    /** Drop every entry of @p asid (view reconfigured). */
    void
    invalidateAsid(sim::Asid asid)
    {
        invalidateIf([asid](const Entry &e) { return e.asid == asid; });
    }

    /** Drop every ASID's entry for the granule containing @p va (a
     * DSV page whose ownership changed — wired to the OwnershipMap
     * listener). */
    void
    shootdown(sim::Addr va)
    {
        const sim::Addr key = va >> GranuleShift;
        invalidateIf([key](const Entry &e) { return e.key == key; });
    }

    void
    invalidateAll()
    {
        invalidateIf([](const Entry &) { return true; });
    }

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
     * anything that can change a lookup's outcome. Used as a
     * GateWake source. */
    const std::uint64_t *genPtr() const { return &gen_; }

  private:
    struct Entry
    {
        sim::Addr key = 0; ///< va >> GranuleShift
        sim::Asid asid = 0;
        Payload payload{};
        bool valid = false;
        std::uint64_t lru = 0; ///< fill stamp
        sim::Cycle readyAt = 0;
    };

    Entry *
    find(sim::Addr key, sim::Asid asid)
    {
        Entry *set = &entries_[(key % sets_) * assoc_];
        for (Entry *e = set; e != set + assoc_; ++e) {
            if (e->valid && e->key == key && e->asid == asid)
                return e;
        }
        return nullptr;
    }

    template <typename Pred>
    void
    invalidateIf(Pred pred)
    {
        for (Entry &e : entries_) {
            if (pred(e))
                e.valid = false;
        }
        ++gen_;
    }

    std::uint32_t sets_;
    std::uint32_t assoc_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t gen_ = 0;
};

/** ISV cache: (512-byte code region, ASID) -> per-instruction bits. */
using IsvCache = ViewCache<9, IsvRegionBits>;

/** DSVMT cache: (data page, ASID) -> the single in-DSV bit (53-bit
 * entries in the paper's layout). */
using DsvCache = ViewCache<sim::kPageShift, bool>;

} // namespace perspective::core

#endif // PERSPECTIVE_CORE_HWCACHE_HH
