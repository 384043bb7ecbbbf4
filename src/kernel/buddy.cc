#include "buddy.hh"

#include <algorithm>
#include <cassert>

namespace perspective::kernel
{

BuddyAllocator::BuddyAllocator(OwnershipMap &ownership, Pfn first_pfn,
                               std::uint64_t num_frames)
    : ownership_(ownership),
      firstPfn_(first_pfn),
      total_(num_frames),
      freeLists_(kMaxOrder + 1),
      orderOf_(num_frames, 0)
{
    // Carve the range into maximal power-of-two blocks.
    std::uint64_t rel = 0;
    while (rel < num_frames) {
        unsigned order = kMaxOrder;
        while (order > 0 &&
               ((rel & ((1ull << order) - 1)) != 0 ||
                rel + (1ull << order) > num_frames)) {
            --order;
        }
        freeLists_[order].push_back(rel);
        rel += 1ull << order;
    }
}

std::uint64_t
BuddyAllocator::buddyOf(std::uint64_t rel, unsigned order) const
{
    return rel ^ (1ull << order);
}

void
BuddyAllocator::insertFree(Pfn rel, unsigned order)
{
    freeLists_[order].push_back(rel);
}

bool
BuddyAllocator::removeFree(Pfn rel, unsigned order)
{
    auto &list = freeLists_[order];
    auto it = std::find(list.begin(), list.end(), rel);
    if (it == list.end())
        return false;
    *it = list.back();
    list.pop_back();
    return true;
}

std::optional<Pfn>
BuddyAllocator::allocPages(unsigned order, DomainId domain)
{
    assert(order <= kMaxOrder);
    unsigned o = order;
    while (o <= kMaxOrder && freeLists_[o].empty())
        ++o;
    if (o > kMaxOrder)
        return std::nullopt;

    std::uint64_t rel = freeLists_[o].back();
    freeLists_[o].pop_back();

    // Split down to the requested order, returning buddies to lists.
    while (o > order) {
        --o;
        insertFree(rel + (1ull << o), o);
    }

    orderOf_[rel] = static_cast<std::uint8_t>(order);
    allocated_ += 1ull << order;
    ownership_.assignRange(firstPfn_ + rel, 1ull << order, domain);
    return firstPfn_ + rel;
}

void
BuddyAllocator::freePages(Pfn pfn, unsigned order)
{
    assert(pfn >= firstPfn_);
    std::uint64_t rel = pfn - firstPfn_;
    assert(rel < total_);
    ownership_.assignRange(pfn, 1ull << order, kDomainUnknown);
    allocated_ -= 1ull << order;

    // Coalesce with the buddy while possible.
    unsigned o = order;
    while (o < kMaxOrder) {
        std::uint64_t bud = buddyOf(rel, o);
        if (bud + (1ull << o) > total_ || !removeFree(bud, o))
            break;
        rel = std::min(rel, bud);
        ++o;
    }
    insertFree(rel, o);
}

} // namespace perspective::kernel
