/**
 * @file
 * Reference (oracle) implementations of the speculation-view
 * structures, kept for differential testing only.
 *
 * `DsvmtRef` is the original hash-map DSVMT and `IsvFuncSetRef` the
 * original `unordered_set` ISV function membership. The production
 * classes (`Dsvmt`, `IsvView`) were rewritten on flat index-addressed
 * tables for the in-cell fast path; `test_views_diff.cc` drives
 * random operation sequences through both and asserts identical
 * observable behaviour, including footprint accounting. They build
 * into the test_core target only.
 */

#ifndef PERSPECTIVE_TESTS_CORE_VIEWS_REF_HH
#define PERSPECTIVE_TESTS_CORE_VIEWS_REF_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kernel/types.hh"
#include "sim/types.hh"

namespace perspective::core
{

/** Hash-map DSVMT oracle: one entry per touched granule/gig, with
 * the same leaf-shadows-huge precedence as the production tree. */
class DsvmtRef
{
  public:
    void setPage(kernel::Pfn pfn, bool in_dsv);
    void set2M(kernel::Pfn first_pfn, bool in_dsv);
    void set1G(kernel::Pfn first_pfn, bool in_dsv);

    bool queryVa(sim::Addr va) const;
    bool queryPfn(kernel::Pfn pfn) const;
    unsigned walkLevels(kernel::Pfn pfn) const;

    /** Resident bytes; same unit-corrected accounting as the
     * production `Dsvmt::memoryBytes` (huge entries are 8-byte
     * descriptors, not raw counts). */
    std::size_t memoryBytes() const;

    void clear();

  private:
    using Leaf = std::array<std::uint64_t, 8>;

    static std::uint64_t granuleOf(kernel::Pfn pfn)
    {
        return pfn >> 9;
    }
    static std::uint64_t gigOf(kernel::Pfn pfn) { return pfn >> 18; }

    std::unordered_map<std::uint64_t, Leaf> leaves_;
    std::unordered_map<std::uint64_t, bool> huge2m_;
    std::unordered_map<std::uint64_t, bool> huge1g_;
};

/** `unordered_set` oracle for the ISV function-membership side:
 * mirrors include/exclude/intersect/union and the epoch contract
 * (one bump per effective reconfiguration). */
class IsvFuncSetRef
{
  public:
    /** @return true when the function was newly added. */
    bool include(sim::FuncId f);
    /** @return true when the function was present and removed. */
    bool exclude(sim::FuncId f);
    bool contains(sim::FuncId f) const;
    std::size_t size() const { return funcs_.size(); }

    void intersectWith(const IsvFuncSetRef &other);
    void unionWith(const IsvFuncSetRef &other);

    /** Sorted member list (the shape the flat side reports). */
    std::vector<sim::FuncId> sortedFunctions() const;

    std::uint64_t epoch() const { return epoch_; }

  private:
    std::unordered_set<sim::FuncId> funcs_;
    std::uint64_t epoch_ = 0;
};

} // namespace perspective::core

#endif // PERSPECTIVE_TESTS_CORE_VIEWS_REF_HH
