/**
 * @file
 * Buddy page allocator. The analogue of Linux's alloc_pages(): order-
 * based free lists with buddy coalescing. Every allocation records the
 * owning domain in the OwnershipMap (Section 6.1: "the kernel buddy
 * allocator obtains the cgroup ID of the current process context
 * during allocations and associates the allocated physical frames to a
 * DSV for the corresponding page in the direct map").
 */

#ifndef PERSPECTIVE_KERNEL_BUDDY_HH
#define PERSPECTIVE_KERNEL_BUDDY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ownership.hh"
#include "types.hh"

namespace perspective::kernel
{

/** Buddy allocator over a contiguous physical range. */
class BuddyAllocator
{
  public:
    static constexpr unsigned kMaxOrder = 11; // like Linux

    /**
     * @param ownership ownership map updated on alloc/free
     * @param first_pfn first managed frame
     * @param num_frames size of the managed range (power of two not
     *        required; the range is carved greedily)
     */
    BuddyAllocator(OwnershipMap &ownership, Pfn first_pfn,
                   std::uint64_t num_frames);

    /**
     * Allocate 2^order contiguous frames for @p domain. Returns the
     * first PFN, or nullopt when memory is exhausted.
     */
    std::optional<Pfn> allocPages(unsigned order, DomainId domain);

    /** Free a block previously returned by allocPages. */
    void freePages(Pfn pfn, unsigned order);

    /** Frames currently allocated. */
    std::uint64_t allocatedFrames() const { return allocated_; }

  private:
    struct Block
    {
        Pfn pfn;
    };

    std::uint64_t buddyOf(std::uint64_t rel, unsigned order) const;
    void insertFree(Pfn pfn, unsigned order);
    bool removeFree(Pfn pfn, unsigned order);

    OwnershipMap &ownership_;
    Pfn firstPfn_;
    std::uint64_t total_;
    std::uint64_t allocated_ = 0;
    std::vector<std::vector<std::uint64_t>> freeLists_; ///< rel pfns
    std::vector<std::uint8_t> orderOf_; ///< alloc order per rel pfn
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_BUDDY_HH
