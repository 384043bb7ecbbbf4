/**
 * @file
 * Per-frame ownership: which domain (cgroup / kernel thread) a
 * physical page belongs to. This is the ground truth that Data
 * Speculation Views are built from: a context's DSV is exactly the set
 * of direct-map pages whose owner equals the context's domain.
 */

#ifndef PERSPECTIVE_KERNEL_OWNERSHIP_HH
#define PERSPECTIVE_KERNEL_OWNERSHIP_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "types.hh"

namespace perspective::kernel
{

/** Frame-indexed owner table covering all simulated physical memory. */
class OwnershipMap
{
  public:
    explicit OwnershipMap(std::uint64_t num_frames)
        : owner_(num_frames, kDomainUnknown)
    {
    }

    DomainId
    ownerOf(Pfn pfn) const
    {
        return pfn < owner_.size() ? owner_[pfn] : kDomainUnknown;
    }

    /** Owner of the frame backing direct-map address @p va. */
    DomainId
    ownerOfVa(sim::Addr va) const
    {
        if (!inDirectMap(va))
            return kDomainUnknown;
        return ownerOf(directMapPfn(va));
    }

    void
    assign(Pfn pfn, DomainId domain)
    {
        if (pfn < owner_.size())
            owner_[pfn] = domain;
        ++epoch_;
        for (auto &l : listeners_)
            l.fn(pfn);
    }

    using ListenerId = std::uint64_t;

    /**
     * Register a change listener (e.g. a DSVMT cache that must shoot
     * down entries for reassigned frames). The returned id removes it
     * again — a listener capturing a shorter-lived object (the races'
     * leased policies) MUST deregister before that object dies, or
     * the next assign() calls through a dangling pointer.
     */
    ListenerId
    addListener(std::function<void(Pfn)> fn)
    {
        listeners_.push_back({nextListenerId_++, std::move(fn)});
        return listeners_.back().id;
    }

    void
    removeListener(ListenerId id)
    {
        for (auto it = listeners_.begin(); it != listeners_.end();
             ++it) {
            if (it->id == id) {
                listeners_.erase(it);
                return;
            }
        }
    }

    void
    assignRange(Pfn pfn, std::uint64_t count, DomainId domain)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            assign(pfn + i, domain);
    }

    void
    release(Pfn pfn)
    {
        assign(pfn, kDomainUnknown);
    }

    std::uint64_t numFrames() const { return owner_.size(); }

    /**
     * Call @p fn(pfn, owner) for every assigned frame (owner !=
     * kDomainUnknown) in pfn order. Unassigned frames are skipped a
     * 64-byte block at a time, so a walk costs little more than the
     * assigned frames themselves.
     */
    template <class F>
    void
    forEachAssigned(F &&fn) const
    {
        static_assert(kDomainUnknown == 0,
                      "block skipping tests owner words against zero");
        constexpr std::size_t kBlock = 64 / sizeof(DomainId);
        const DomainId *o = owner_.data();
        const std::size_t n = owner_.size();
        for (std::size_t base = 0; base < n; base += kBlock) {
            const std::size_t end = std::min(n, base + kBlock);
            DomainId any = 0;
            for (std::size_t p = base; p < end; ++p)
                any |= o[p];
            if (any == 0)
                continue;
            for (std::size_t p = base; p < end; ++p) {
                if (o[p] != kDomainUnknown)
                    fn(Pfn{p}, o[p]);
            }
        }
    }

    /** Bumped on every change; DSV caches use it to invalidate. */
    std::uint64_t epoch() const { return epoch_; }

  private:
    struct Listener
    {
        ListenerId id;
        std::function<void(Pfn)> fn;
    };

    std::vector<DomainId> owner_;
    std::uint64_t epoch_ = 0;
    std::vector<Listener> listeners_;
    ListenerId nextListenerId_ = 1;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_OWNERSHIP_HH
