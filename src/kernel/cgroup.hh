/**
 * @file
 * Minimal control-group registry. Perspective keys DSVs off cgroups
 * (Section 6.1): each cgroup owns a protection domain, and every
 * resource the kernel allocates on behalf of a member process is
 * charged to that domain.
 */

#ifndef PERSPECTIVE_KERNEL_CGROUP_HH
#define PERSPECTIVE_KERNEL_CGROUP_HH

#include <cassert>
#include <string>
#include <vector>

#include "types.hh"

namespace perspective::kernel
{

/** Registry mapping cgroups to ownership domains. */
class CgroupRegistry
{
  public:
    /** Create a cgroup; its domain id is allocated automatically. */
    CgroupId
    create(std::string name)
    {
        CgroupId id = static_cast<CgroupId>(entries_.size());
        Entry e;
        e.name = std::move(name);
        e.domain = static_cast<DomainId>(kFirstDynamicDomain + id);
        entries_.push_back(std::move(e));
        return id;
    }

    DomainId
    domainOf(CgroupId id) const
    {
        assert(id < entries_.size());
        return entries_[id].domain;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string name;
        DomainId domain = kDomainUnknown;
    };

    std::vector<Entry> entries_;
};

} // namespace perspective::kernel

#endif // PERSPECTIVE_KERNEL_CGROUP_HH
