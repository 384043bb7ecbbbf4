#include "boot_cache.hh"

#include <mutex>
#include <unordered_map>

namespace perspective::workloads
{

namespace
{

std::mutex cacheMutex;

std::unordered_map<std::uint64_t, std::shared_ptr<BootImage>> &
cache()
{
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<BootImage>>
        c;
    return c;
}

bool reuseEnabled = true; // guarded by cacheMutex

} // namespace

BootImage::BootImage(std::uint64_t seed) : seed_(seed)
{
    img_ = std::make_unique<kernel::KernelImage>(bootMem_, seed);
    drivers_ = std::make_unique<DriverSet>(*img_);
    img_->program().layout();
    snap_ = bootMem_.snapshot();
}

std::shared_ptr<BootImage>
BootImage::forSeed(std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    if (!reuseEnabled)
        return std::make_shared<BootImage>(seed);
    auto &slot = cache()[seed];
    if (!slot)
        slot = std::make_shared<BootImage>(seed);
    return slot;
}

bool
BootImage::snapshotEnabled()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return reuseEnabled;
}

void
BootImage::setSnapshotEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    reuseEnabled = on;
}

void
BootImage::dropCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    cache().clear();
}

std::size_t
BootImage::cacheSize()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    return cache().size();
}

} // namespace perspective::workloads
