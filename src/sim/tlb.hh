/**
 * @file
 * A small fully-tag-checked TLB model. Address translation in this
 * simulator is identity (kernel VAs map to themselves); the TLB exists
 * to charge walk latency and to serve as the fill path for the ISV
 * cache (Section 6.2: on an ISV-cache miss, the instruction VA plus
 * the shadow offset is sent to the TLB to locate the ISV page).
 */

#ifndef PERSPECTIVE_SIM_TLB_HH
#define PERSPECTIVE_SIM_TLB_HH

#include <cstdint>
#include <vector>

#include "types.hh"

namespace perspective::sim
{

/** Set-associative, ASID-tagged TLB. */
class Tlb
{
  public:
    Tlb(std::uint32_t entries, std::uint32_t assoc, Cycle walk_latency);

    /**
     * Translate @p va under @p asid. Identity translation; returns the
     * round-trip latency (1 cycle hit, walk latency on miss) and fills
     * the entry on a miss.
     */
    Cycle translate(Addr va, Asid asid);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        Asid asid = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    Cycle walkLatency_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_TLB_HH
