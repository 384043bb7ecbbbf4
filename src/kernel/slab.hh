/**
 * @file
 * Slab allocator with two operating modes:
 *
 *  - normal: Linux-style packing — objects of every context share
 *    pages (and even cache lines), which is exactly the collocation
 *    hazard Section 5.2 describes;
 *  - secure: Perspective's secure slab allocator — each cgroup gets
 *    its own page lists for each slab cache, eliminating collocation
 *    at page granularity. When a page drains it is returned to the
 *    buddy allocator, a *domain reassignment* (Section 9.2).
 */

#ifndef PERSPECTIVE_KERNEL_SLAB_HH
#define PERSPECTIVE_KERNEL_SLAB_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "buddy.hh"
#include "types.hh"

namespace perspective::kernel
{

/** One slab cache serving a fixed object size. */
class SlabCache
{
  public:
    /**
     * @param name cache name (slabinfo style)
     * @param object_size bytes per object (8..4096)
     * @param buddy backing page source
     * @param secure per-cgroup isolation on/off
     */
    SlabCache(std::string name, std::uint32_t object_size,
              BuddyAllocator &buddy, bool secure);

    /** Allocate one object on behalf of @p domain; returns its VA. */
    sim::Addr alloc(DomainId domain);

    /** Return an object. */
    void free(sim::Addr va);

    const std::string &name() const { return name_; }
    std::uint32_t objectSize() const { return objectSize_; }
    bool secure() const { return secure_; }

    /** @name slabtop-style metrics
     * @{ */
    std::uint64_t activeObjects() const { return active_; }
    std::uint64_t totalSlots() const;
    std::uint64_t pagesInUse() const { return pages_.size(); }
    /** active bytes / backed bytes, 1.0 when perfectly packed. */
    double utilization() const;
    /** frees that drained a page back to the buddy allocator. */
    std::uint64_t domainReassignments() const { return reassigns_; }
    std::uint64_t totalFrees() const { return frees_; }
    std::uint64_t totalAllocs() const { return allocs_; }
    /** @} */

    /**
     * Domain that would be *charged* for the page containing @p va.
     * In normal mode this is whoever faulted the page in first — the
     * collocation hazard — while in secure mode it is the only domain
     * with objects in the page.
     */
    DomainId pageDomain(sim::Addr va) const;

  private:
    struct Page
    {
        Pfn pfn = 0;
        DomainId domain = kDomainUnknown;
        std::vector<bool> used; ///< slot occupancy
        std::uint32_t usedCount = 0;
    };

    std::uint32_t slotsPerPage() const;
    Page *grabPartialPage(DomainId domain);

    std::string name_;
    std::uint32_t objectSize_;
    BuddyAllocator &buddy_;
    bool secure_;

    std::unordered_map<Pfn, Page> pages_;
    /** Partial pages with free slots, keyed by domain (normal mode
     * uses a single shared key). */
    std::map<DomainId, std::vector<Pfn>> partial_;

    std::uint64_t active_ = 0;
    std::uint64_t allocs_ = 0;
    std::uint64_t frees_ = 0;
    std::uint64_t reassigns_ = 0;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_SLAB_HH
