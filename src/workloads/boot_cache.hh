/**
 * @file
 * Process-wide cache of booted kernel images.
 *
 * Building a KernelImage — generating ~28k function bodies, planting
 * gadgets, laying out the program — costs tens of milliseconds and
 * depends only on the seed. A sweep runs hundreds of cells that all
 * boot the same image, so the harness pays that cost once per seed
 * per process: BootImage bakes the image, drivers and code layout,
 * snapshots the memory the boot wrote, and every Experiment restores
 * that snapshot (copy-on-write page sharing, see sim::Memory) instead
 * of rebuilding.
 *
 * Sharing is sound because a booted image is immutable: KernelImage
 * writes memory only during construction, Program::layout() runs once
 * here, and DriverSet is a constant table — all verified read-only
 * after boot, so concurrent sweep workers can share one instance.
 *
 * setSnapshotEnabled(false) disables reuse (every Experiment builds
 * privately — the pre-cache behaviour); reuse is on by default.
 */

#ifndef PERSPECTIVE_WORKLOADS_BOOT_CACHE_HH
#define PERSPECTIVE_WORKLOADS_BOOT_CACHE_HH

#include <cstdint>
#include <memory>

#include "driver.hh"
#include "kernel/image.hh"
#include "sim/memory.hh"

namespace perspective::workloads
{

/** One booted, laid-out kernel image plus its memory snapshot. */
class BootImage
{
  public:
    /** Boot from scratch: build the image and drivers, lay out the
     * program, snapshot the memory the boot wrote. */
    explicit BootImage(std::uint64_t seed);

    /**
     * The shared boot for @p seed: served from the process-wide cache
     * when snapshot reuse is enabled, built fresh otherwise.
     * Thread-safe.
     */
    static std::shared_ptr<BootImage> forSeed(std::uint64_t seed);

    /** Snapshot reuse state (default on). */
    static bool snapshotEnabled();
    /** Turn reuse on or off (tests, bench on/off comparisons). */
    static void setSnapshotEnabled(bool on);
    /** Drop every cached boot (tests; frees the shared pages). */
    static void dropCache();
    /** Number of distinct seeds currently cached. */
    static std::size_t cacheSize();

    kernel::KernelImage &image() { return *img_; }
    DriverSet &drivers() { return *drivers_; }
    /** Memory contents at the end of boot; restore into a cell's
     * Memory to share the image pages copy-on-write. */
    const sim::Memory::Snapshot &memoryImage() const { return snap_; }
    std::uint64_t seed() const { return seed_; }

  private:
    std::uint64_t seed_;
    sim::Memory bootMem_;
    std::unique_ptr<kernel::KernelImage> img_;
    std::unique_ptr<DriverSet> drivers_;
    sim::Memory::Snapshot snap_;
};

} // namespace perspective::workloads

#endif // PERSPECTIVE_WORKLOADS_BOOT_CACHE_HH
