/**
 * @file
 * Flush+Reload covert-channel receiver operating on the simulated
 * cache hierarchy. A transmitter gadget encodes a secret byte by
 * touching probeBase + secret * kStride; the receiver flushes every
 * slot beforehand and afterwards classifies slots by probe latency.
 */

#ifndef PERSPECTIVE_SIM_COVERT_HH
#define PERSPECTIVE_SIM_COVERT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache.hh"
#include "types.hh"

namespace perspective::sim
{

/** Flush+Reload primitive over a probe array. */
class FlushReload
{
  public:
    /** One probe slot per possible symbol (e.g. 256 for a byte). */
    static constexpr unsigned kStride = 4096; ///< defeat prefetchers

    FlushReload(CacheHierarchy &caches, Addr probe_base,
                unsigned symbols = 256)
        : caches_(caches), probeBase_(probe_base), symbols_(symbols)
    {
    }

    /** VA a transmitter must touch to encode @p symbol. */
    Addr
    slotAddr(unsigned symbol) const
    {
        return probeBase_ + Addr{symbol} * kStride;
    }

    /** Flush every probe slot (the "flush" phase). */
    void
    prime()
    {
        for (unsigned s = 0; s < symbols_; ++s)
            caches_.flush(slotAddr(s));
    }

    /**
     * Reload phase: return the symbol whose slot hits in cache, or
     * nullopt when no slot (or more than one) was touched.
     */
    std::optional<unsigned>
    recover() const
    {
        std::optional<unsigned> hit;
        Cycle threshold = caches_.l1d().params().hit_latency +
                          caches_.l2().params().hit_latency;
        for (unsigned s = 0; s < symbols_; ++s) {
            if (caches_.probeLatency(slotAddr(s)) <= threshold) {
                if (hit)
                    return std::nullopt; // ambiguous
                hit = s;
            }
        }
        return hit;
    }

    unsigned symbols() const { return symbols_; }

  private:
    CacheHierarchy &caches_;
    Addr probeBase_;
    unsigned symbols_;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_COVERT_HH
