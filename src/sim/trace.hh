/**
 * @file
 * Structured event tracing: when an EventLog is installed, the
 * pipeline records typed span/instant events (fetch-to-commit spans,
 * squashes, fence stalls, transient leaks, dynamic-update windows)
 * that the harness serializes as Chrome trace_event JSON for
 * chrome://tracing / Perfetto. With no log installed, tracing costs
 * one branch per run.
 */

#ifndef PERSPECTIVE_SIM_TRACE_HH
#define PERSPECTIVE_SIM_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "types.hh"

namespace perspective::sim::trace
{

/** Event categories (the Chrome trace "cat" field). */
enum class Flag : std::uint8_t
{
    Commit, ///< micro-ops retiring
    Squash, ///< mispredictions and their redirects
    Fence,  ///< policy-blocked transmitters
    Leak,   ///< transient-leakage transmissions (DESIGN §5.6)
    Window, ///< dynamic-update (revocation/flip) windows
};

/** Lower-case name of @p f ("commit", "squash", ...). */
const char *flagName(Flag f);

/**
 * One structured trace event. @p dur == 0 marks an instant event
 * (a squash point); otherwise the event is a [start, start+dur) span
 * in simulated cycles (an instruction's dispatch-to-commit lifetime
 * or a fence-stall window).
 */
struct Event
{
    Flag flag = Flag::Commit; ///< category
    Cycle start = 0;          ///< span start (simulated cycle)
    Cycle dur = 0;            ///< span length; 0 = instant event
    Cycle issue = 0;          ///< issue cycle within the span, if any
    std::uint64_t seq = 0;    ///< pipeline sequence number
    unsigned lane = 0;        ///< recording thread lane (sweep cells)
    bool kernel = false;
    std::string name;         ///< op or event description
    std::string func;         ///< containing simulated function
};

/**
 * A bounded, thread-safe collector of structured events. Each
 * recording thread is assigned a small stable lane id (Chrome trace
 * "tid"), so a parallel sweep's cells land on separate tracks. Past
 * @p capacity, events are dropped and counted rather than growing
 * without bound — a full lebench sweep commits tens of millions of
 * micro-ops.
 */
class EventLog
{
  public:
    static constexpr std::size_t kDefaultCapacity = 100'000;

    explicit EventLog(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity)
    {
    }

    /** Append @p ev (fills Event::lane); drops when full. */
    void record(Event ev);

    /** Copy of everything recorded so far. */
    std::vector<Event> snapshot() const;

    std::size_t size() const;
    std::uint64_t dropped() const;

    /**
     * Per-lane drop counts (index = lane id). Lanes that never
     * dropped report 0; the vector covers every lane ever assigned.
     * Silent truncation reads as "nothing happened" — surface this.
     */
    std::vector<std::uint64_t> droppedByLane() const;

    void clear();

  private:
    mutable std::mutex mu_;
    std::size_t capacity_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
    std::vector<std::uint64_t> droppedByLane_;
    /** Lane of each recording thread, in first-record order. */
    std::map<std::thread::id, unsigned> lanes_;
};

/**
 * Install @p log as the global structured sink (nullptr detaches).
 * The caller keeps ownership and must outlive any traced run.
 */
void setEventLog(EventLog *log);

/** The installed sink, or nullptr. */
EventLog *eventLog();

/** Fast-path check: is a structured sink installed? */
bool eventsEnabled();

} // namespace perspective::sim::trace

#endif // PERSPECTIVE_SIM_TRACE_HH
