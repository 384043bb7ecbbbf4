/**
 * @file
 * Data Speculation View Metadata Table (DSVMT, Section 6.2).
 *
 * The in-memory structure the DSV cache fills from: a per-domain
 * radix table over the direct map supporting the three contemporary
 * page sizes (4 KB leaf bits, 2 MB and 1 GB aggregate entries). Leaf
 * entries are a single bit: "does this page belong to the domain's
 * DSV". PerspectivePolicy keeps one DSVMT per domain in sync with the
 * OwnershipMap.
 *
 * The table is index-addressed rather than hashed: a top-level vector
 * keyed by 1 GB region holds, per region, 512 granule slots (leaf
 * index + 2 MB state) — so a query is two array indexes and at most
 * one bit test. A one-entry MRU granule cache short-circuits the walk
 * entirely for the common case of consecutive probes into the same
 * 2 MB granule; its hit rate is exported as simulator telemetry. The
 * original hash-map implementation survives as `DsvmtRef`
 * (tests/core/views_ref.hh), the oracle for the differential fuzz
 * test.
 */

#ifndef PERSPECTIVE_CORE_DSVMT_HH
#define PERSPECTIVE_CORE_DSVMT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "kernel/types.hh"
#include "sim/types.hh"

namespace perspective::core
{

/** One domain's three-level DSV metadata tree. */
class Dsvmt
{
  public:
    /** Mark the 4 KB page @p pfn as in/out of the DSV. */
    void setPage(kernel::Pfn pfn, bool in_dsv);

    /** Promote an aligned 2 MB region (512 pages) wholesale,
     * replacing any leaf it previously held. */
    void set2M(kernel::Pfn first_pfn, bool in_dsv);

    /** Promote an aligned 1 GB region wholesale, replacing every
     * leaf and 2 MB entry beneath it (newest installation wins; a
     * later setPage/set2M re-demotes). */
    void set1G(kernel::Pfn first_pfn, bool in_dsv);

    /** Query a direct-map VA. */
    bool queryVa(sim::Addr va) const;
    bool queryPfn(kernel::Pfn pfn) const;

    /** Number of radix levels a hardware walk of @p pfn touches
     * (1 for a 1 GB hit, 2 for 2 MB, 3 for a leaf). */
    unsigned walkLevels(kernel::Pfn pfn) const;

    /** Approximate resident size of the tree in bytes (for the
     * memory-overhead characterization): live leaves at
     * sizeof(Leaf), live 2 MB / 1 GB entries at 8 bytes each. */
    std::size_t memoryBytes() const;

    void clear();

    /** MRU granule-cache telemetry (queryPfn/queryVa probes). */
    std::uint64_t mruHits() const { return mruHits_; }
    std::uint64_t mruLookups() const { return mruLookups_; }
    void resetMruStats() const { mruHits_ = mruLookups_ = 0; }

  private:
    /** 512 leaf bits covering one 2 MB granule. */
    using Leaf = std::array<std::uint64_t, 8>;

    /** Tri-state huge entry: distinguishes "no entry installed"
     * from an installed entry mapping the region out of the DSV. */
    enum class HugeState : std::uint8_t { Absent, Out, In };

    static constexpr std::uint32_t kNoLeaf = 0xffffffffu;
    static constexpr std::uint64_t kNoGranule = ~0ull;

    /** One 1 GB region: 512 granule slots plus the region entry. */
    struct GigNode
    {
        std::array<std::uint32_t, 512> leaf; ///< leafPool_ index
        std::array<HugeState, 512> huge2m;
        HugeState huge1g = HugeState::Absent;
        std::uint32_t liveLeaves = 0;
        std::uint32_t live2m = 0;

        GigNode()
        {
            leaf.fill(kNoLeaf);
            huge2m.fill(HugeState::Absent);
        }
    };

    static std::uint64_t granuleOf(kernel::Pfn pfn)
    {
        return pfn >> 9;
    }
    static std::uint64_t gigOf(kernel::Pfn pfn) { return pfn >> 18; }

    GigNode &gigFor(std::uint64_t gig);
    const GigNode *gigAt(std::uint64_t gig) const
    {
        return gig < gigs_.size() ? &gigs_[gig] : nullptr;
    }
    std::uint32_t allocLeaf();
    void freeLeaf(GigNode &g, unsigned slot);
    bool resolveNoLeaf(const GigNode *g, unsigned slot) const;
    void invalidateMru() const { mruGranule_ = kNoGranule; }

    std::vector<GigNode> gigs_; ///< indexed by pfn >> 18
    std::vector<Leaf> leafPool_;
    std::vector<std::uint32_t> leafFree_;

    // One-entry MRU granule cache: the resolution of the last
    // queried granule (leaf index, or the constant huge-entry
    // verdict when no leaf shadows it). Mutations invalidate it.
    mutable std::uint64_t mruGranule_ = kNoGranule;
    mutable std::uint32_t mruLeaf_ = kNoLeaf;
    mutable bool mruNoLeafValue_ = false;
    mutable std::uint64_t mruHits_ = 0;
    mutable std::uint64_t mruLookups_ = 0;
};

} // namespace perspective::core

#endif // PERSPECTIVE_CORE_DSVMT_HH
