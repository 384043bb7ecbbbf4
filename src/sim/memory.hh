/**
 * @file
 * Sparse backing store for simulated memory values.
 *
 * The cache hierarchy models *timing* by tag; this class models the
 * *values* that data-flow through micro-ops (secrets, indices, function
 * pointers). Unwritten locations read as zero, like zero-filled pages.
 *
 * Storage is a sparse page table of flat 4 KiB word arrays: one hash
 * lookup per page (cached across consecutive same-page accesses)
 * instead of one per word. Pages are reference-counted so snapshot()
 * is O(pages) pointer copies and restore() is copy-on-write: a
 * restored Memory shares pages with its snapshot and clones a page
 * only when it is first written. Boot images shared across sweep
 * cells ride on exactly this mechanism.
 *
 * Semantics note: like the original word map, each distinct *byte*
 * address names its own independent 64-bit cell — writing addr 0 and
 * addr 4 stores two values that do not alias. 8-aligned addresses
 * (the overwhelmingly common case) live in the page arrays; the rare
 * unaligned cells fall back to a word map.
 */

#ifndef PERSPECTIVE_SIM_MEMORY_HH
#define PERSPECTIVE_SIM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "types.hh"

namespace perspective::sim
{

/** Word-granular sparse memory. Addresses are byte addresses. */
class Memory
{
    struct Page; // defined below; Snapshot shares pages by pointer

  public:
    static constexpr unsigned kPageShift = 12; ///< 4 KiB pages
    static constexpr unsigned kWordsPerPage = 1u << (kPageShift - 3);

    Memory() = default;
    /** Pages are shared only through snapshot()/restore(), which
     * keep the one-entry write cache off a shared page. */
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /** Read the 64-bit word at @p addr (zero if never written). */
    std::uint64_t
    read(Addr addr) const
    {
        if (addr & 7) [[unlikely]] {
            auto it = unaligned_.find(addr);
            return it == unaligned_.end() ? 0 : it->second;
        }
        Addr key = addr >> kPageShift;
        if (key != readKey_) {
            auto it = pages_.find(key);
            readPage_ = it == pages_.end() ? nullptr : it->second.get();
            readKey_ = key;
        }
        if (!readPage_)
            return 0;
        return readPage_->word[wordIndex(addr)];
    }

    /** Write the 64-bit word at @p addr. */
    void
    write(Addr addr, std::uint64_t value)
    {
        if (addr & 7) [[unlikely]] {
            unaligned_[addr] = value;
            return;
        }
        writablePage(addr >> kPageShift)->word[wordIndex(addr)] = value;
    }

    /**
     * A copy-on-write checkpoint of the full contents. Cheap to take
     * (per-page shared_ptr copies) and to restore; pages are cloned
     * lazily, on first write after a snapshot/restore. The snapshot
     * stays valid for any number of restores and is independent of
     * the Memory it came from.
     */
    struct Snapshot
    {
        friend class Memory;

      private:
        std::unordered_map<Addr, std::shared_ptr<Page>> pages;
        std::unordered_map<Addr, std::uint64_t> unaligned;
    };

    Snapshot
    snapshot() const
    {
        Snapshot s;
        s.pages = pages_;
        s.unaligned = unaligned_;
        // Every page is now shared with the snapshot: the next write
        // to any of them must clone, so drop the writable cache.
        writeKey_ = kNoKey;
        writePage_ = nullptr;
        return s;
    }

    void
    restore(const Snapshot &s)
    {
        pages_ = s.pages;
        unaligned_ = s.unaligned;
        invalidateCaches();
    }

  private:
    struct Page
    {
        std::array<std::uint64_t, kWordsPerPage> word{};
    };

    static unsigned
    wordIndex(Addr addr)
    {
        return static_cast<unsigned>((addr >> 3) &
                                     (kWordsPerPage - 1));
    }

    Page *
    writablePage(Addr key)
    {
        if (key == writeKey_)
            return writePage_;
        std::shared_ptr<Page> &slot = pages_[key];
        if (!slot)
            slot = std::make_shared<Page>();
        else if (slot.use_count() > 1)
            slot = std::make_shared<Page>(*slot); // copy-on-write
        writeKey_ = key;
        writePage_ = slot.get();
        if (readKey_ == key)
            readPage_ = writePage_;
        return writePage_;
    }

    void
    invalidateCaches() const
    {
        readKey_ = kNoKey;
        readPage_ = nullptr;
        writeKey_ = kNoKey;
        writePage_ = nullptr;
    }

    static constexpr Addr kNoKey = ~Addr{0};

    std::unordered_map<Addr, std::shared_ptr<Page>> pages_;
    /** Cells at non-8-aligned byte addresses (rare; see file note). */
    std::unordered_map<Addr, std::uint64_t> unaligned_;

    // One-entry lookup caches; accesses cluster heavily by page.
    mutable Addr readKey_ = kNoKey;
    mutable const Page *readPage_ = nullptr;
    mutable Addr writeKey_ = kNoKey;
    mutable Page *writePage_ = nullptr;
};

} // namespace perspective::sim

#endif // PERSPECTIVE_SIM_MEMORY_HH
