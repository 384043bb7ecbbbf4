#include "hwcache.hh"

#include <cassert>

namespace perspective::core
{

using sim::Addr;
using sim::Asid;

IsvCache::IsvCache(std::uint32_t entries, std::uint32_t assoc)
    : assoc_(assoc)
{
    assert(entries % assoc == 0);
    sets_ = entries / assoc;
    entries_.resize(entries);
}

HwLookup
IsvCache::lookup(Addr pc, Asid asid, bool defer_lru, sim::Cycle now,
                 bool count)
{
    Addr line = pc & ~(IsvCache::kRegionBytes - 1);
    std::uint32_t set = static_cast<std::uint32_t>(
        (line / IsvCache::kRegionBytes) % sets_);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        Entry &e = entries_[set * assoc_ + w];
        if (e.valid && e.line == line && e.asid == asid) {
            if (now < e.readyAt) {
                if (count)
                    ++misses_; // fill still in flight
                return {false, false, e.readyAt};
            }
            if (!defer_lru)
                e.lru = ++useClock_;
            if (count)
                ++hits_;
            unsigned idx = static_cast<unsigned>((pc - line) / 4);
            return {true, e.bits.test(idx)};
        }
    }
    if (count)
        ++misses_;
    return {false, false};
}

sim::Cycle
IsvCache::fill(Addr pc, Asid asid, IsvRegionBits bits,
               sim::Cycle ready_at)
{
    Addr line = pc & ~(IsvCache::kRegionBytes - 1);
    std::uint32_t set = static_cast<std::uint32_t>(
        (line / IsvCache::kRegionBytes) % sets_);
    Entry *victim = nullptr;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        Entry &e = entries_[set * assoc_ + w];
        if (e.valid && e.line == line && e.asid == asid) {
            e.bits = bits;
            ++gen_;
            return e.readyAt; // already filling or present
        }
        if (!victim || (victim->valid &&
                        (!e.valid || e.lru < victim->lru))) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->line = line;
    victim->asid = asid;
    victim->bits = bits;
    victim->lru = ++useClock_;
    victim->readyAt = ready_at;
    ++gen_;
    return ready_at;
}

void
IsvCache::invalidateAsid(Asid asid)
{
    for (auto &e : entries_) {
        if (e.valid && e.asid == asid)
            e.valid = false;
    }
    ++gen_;
}

void
IsvCache::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
    ++gen_;
}

DsvCache::DsvCache(std::uint32_t entries, std::uint32_t assoc)
    : assoc_(assoc)
{
    assert(entries % assoc == 0);
    sets_ = entries / assoc;
    entries_.resize(entries);
}

HwLookup
DsvCache::lookup(Addr va, Asid asid, bool defer_lru, sim::Cycle now,
                 bool count)
{
    Addr page = sim::pageBase(va);
    std::uint32_t set =
        static_cast<std::uint32_t>((page >> sim::kPageShift) % sets_);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        Entry &e = entries_[set * assoc_ + w];
        if (e.valid && e.page == page && e.asid == asid) {
            if (now < e.readyAt) {
                if (count)
                    ++misses_; // fill still in flight
                return {false, false, e.readyAt};
            }
            if (!defer_lru)
                e.lru = ++useClock_;
            if (count)
                ++hits_;
            return {true, e.inDsv};
        }
    }
    if (count)
        ++misses_;
    return {false, false};
}

sim::Cycle
DsvCache::fill(Addr va, Asid asid, bool in_dsv, sim::Cycle ready_at)
{
    Addr page = sim::pageBase(va);
    std::uint32_t set =
        static_cast<std::uint32_t>((page >> sim::kPageShift) % sets_);
    Entry *victim = nullptr;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        Entry &e = entries_[set * assoc_ + w];
        if (e.valid && e.page == page && e.asid == asid) {
            e.inDsv = in_dsv;
            ++gen_;
            return e.readyAt;
        }
        if (!victim || (victim->valid &&
                        (!e.valid || e.lru < victim->lru))) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->page = page;
    victim->asid = asid;
    victim->inDsv = in_dsv;
    victim->lru = ++useClock_;
    victim->readyAt = ready_at;
    ++gen_;
    return ready_at;
}

void
DsvCache::invalidatePage(Addr page_va)
{
    Addr page = sim::pageBase(page_va);
    for (auto &e : entries_) {
        if (e.valid && e.page == page)
            e.valid = false;
    }
    ++gen_;
}

void
DsvCache::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
    ++gen_;
}

} // namespace perspective::core
