#include "trace.hh"

#include <atomic>

namespace perspective::sim::trace
{

namespace
{

// The simulator's only mutable global. Concurrent Experiment
// instances (the sweep runner's worker threads) all read it once per
// run, so it is an atomic.
std::atomic<EventLog *> g_events{nullptr};

} // namespace

const char *
flagName(Flag f)
{
    switch (f) {
      case Flag::Commit: return "commit";
      case Flag::Squash: return "squash";
      case Flag::Fence: return "fence";
      case Flag::Leak: return "leak";
      case Flag::Window: return "window";
    }
    return "?";
}

void
EventLog::record(Event ev)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Lane ids are small stable per-thread integers so a parallel
    // sweep's cells render as separate tracks in chrome://tracing.
    // Resolve the lane before the capacity check so drops are
    // attributable to the lane that overflowed, not just a global
    // tally (bench_report warns per lane when nonzero).
    ev.lane = lanes_
                  .try_emplace(std::this_thread::get_id(),
                               static_cast<unsigned>(lanes_.size()))
                  .first->second;
    if (events_.size() >= capacity_) {
        ++dropped_;
        if (droppedByLane_.size() <= ev.lane)
            droppedByLane_.resize(ev.lane + 1, 0);
        ++droppedByLane_[ev.lane];
        return;
    }
    events_.push_back(std::move(ev));
}

std::vector<Event>
EventLog::snapshot() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return events_;
}

std::size_t
EventLog::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return events_.size();
}

std::uint64_t
EventLog::dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
}

std::vector<std::uint64_t>
EventLog::droppedByLane() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::uint64_t> out(lanes_.size(), 0);
    for (std::size_t i = 0; i < droppedByLane_.size(); ++i)
        out[i] = droppedByLane_[i];
    return out;
}

void
EventLog::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    events_.clear();
    dropped_ = 0;
    droppedByLane_.clear();
}

void
setEventLog(EventLog *log)
{
    g_events.store(log, std::memory_order_release);
}

EventLog *
eventLog()
{
    return g_events.load(std::memory_order_acquire);
}

bool
eventsEnabled()
{
    return g_events.load(std::memory_order_relaxed) != nullptr;
}

} // namespace perspective::sim::trace
