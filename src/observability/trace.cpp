#include "observability/trace.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace stats::obs {

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::AuxStart:         return "AuxStart";
      case EventType::AuxEnd:           return "AuxEnd";
      case EventType::BodyStart:        return "BodyStart";
      case EventType::BodyEnd:          return "BodyEnd";
      case EventType::ReExecStart:      return "ReExecStart";
      case EventType::ReExecEnd:        return "ReExecEnd";
      case EventType::RecoveryStart:    return "RecoveryStart";
      case EventType::RecoveryEnd:      return "RecoveryEnd";
      case EventType::ValidateMatch:    return "ValidateMatch";
      case EventType::ValidateMismatch: return "ValidateMismatch";
      case EventType::Rollback:         return "Rollback";
      case EventType::Commit:           return "Commit";
      case EventType::Squash:           return "Squash";
      case EventType::Abort:            return "Abort";
      case EventType::FrontierAdvance:  return "FrontierAdvance";
      case EventType::TaskCancelled:    return "TaskCancelled";
      case EventType::WorkerPark:       return "WorkerPark";
      case EventType::WorkerUnpark:     return "WorkerUnpark";
      case EventType::QueueDepth:       return "QueueDepth";
      case EventType::ReplayDivergence: return "ReplayDivergence";
      case EventType::FaultInjected:    return "FaultInjected";
      case EventType::CommitLaneEnqueue:
        return "CommitLaneEnqueue";
      case EventType::RequestAdmitted:  return "RequestAdmitted";
      case EventType::RequestRejected:  return "RequestRejected";
      case EventType::PlanEnqueued:     return "PlanEnqueued";
      case EventType::PlanDispatched:   return "PlanDispatched";
      case EventType::BatchFormed:      return "BatchFormed";
      case EventType::TenantThrottled:  return "TenantThrottled";
      case EventType::CacheHit:         return "CacheHit";
    }
    support::panic("eventTypeName: unknown event type ",
                   static_cast<int>(type));
}

bool
isSpanStart(EventType type)
{
    switch (type) {
      case EventType::AuxStart:
      case EventType::BodyStart:
      case EventType::ReExecStart:
      case EventType::RecoveryStart:
        return true;
      default:
        return false;
    }
}

bool
isSpanEnd(EventType type)
{
    switch (type) {
      case EventType::AuxEnd:
      case EventType::BodyEnd:
      case EventType::ReExecEnd:
      case EventType::RecoveryEnd:
        return true;
      default:
        return false;
    }
}

bool
isSchedulerEvent(EventType type)
{
    switch (type) {
      case EventType::WorkerPark:
      case EventType::WorkerUnpark:
      case EventType::QueueDepth:
      case EventType::CommitLaneEnqueue:
        return true;
      default:
        return false;
    }
}

bool
isServingEvent(EventType type)
{
    switch (type) {
      case EventType::RequestAdmitted:
      case EventType::RequestRejected:
      case EventType::PlanEnqueued:
      case EventType::PlanDispatched:
      case EventType::BatchFormed:
      case EventType::TenantThrottled:
      case EventType::CacheHit:
        return true;
      default:
        return false;
    }
}

EventType
spanStartEvent(TaskKind kind)
{
    switch (kind) {
      case TaskKind::Aux:      return EventType::AuxStart;
      case TaskKind::Body:     return EventType::BodyStart;
      case TaskKind::ReExec:   return EventType::ReExecStart;
      case TaskKind::Recovery: return EventType::RecoveryStart;
      case TaskKind::None:     break;
    }
    support::panic("spanStartEvent: untagged task");
}

EventType
spanEndEvent(TaskKind kind)
{
    switch (kind) {
      case TaskKind::Aux:      return EventType::AuxEnd;
      case TaskKind::Body:     return EventType::BodyEnd;
      case TaskKind::ReExec:   return EventType::ReExecEnd;
      case TaskKind::Recovery: return EventType::RecoveryEnd;
      case TaskKind::None:     break;
    }
    support::panic("spanEndEvent: untagged task");
}

Trace::Trace()
{
#if defined(STATS_OBS_FORCE) && STATS_OBS_FORCE
    enable();
#endif
}

Trace &
Trace::global()
{
    static Trace instance;
    return instance;
}

void
Trace::enable(std::size_t per_thread_capacity)
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    _capacity = std::max<std::size_t>(16, per_thread_capacity);
    _enabled.store(true, std::memory_order_relaxed);
}

void
Trace::disable()
{
    _enabled.store(false, std::memory_order_relaxed);
}

namespace {

/**
 * Per-thread sink cache, invalidated when the epoch moves. It co-owns
 * the sink, which therefore outlives a clear() that drops it from the
 * registry: an idle pool worker may still be recording (park/unpark
 * events) while another thread clears the trace.
 */
struct ThreadSlot
{
    std::shared_ptr<void> sink;
    std::uint64_t epoch = ~0ull;
    std::int32_t track = -1;
};

thread_local ThreadSlot t_slot;

} // namespace

Trace::Sink &
Trace::sinkForThisThread()
{
    if (t_slot.sink == nullptr ||
        t_slot.epoch != _epoch.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(_registryMutex);
        auto sink = std::make_shared<Sink>();
        sink->ring.resize(_capacity);
        t_slot.sink = sink;
        t_slot.epoch = _epoch.load(std::memory_order_relaxed);
        if (t_slot.track < 0)
            t_slot.track =
                _nextTrack.fetch_add(1, std::memory_order_relaxed);
        _sinks.push_back(std::move(sink));
    }
    return *static_cast<Sink *>(t_slot.sink.get());
}

std::int32_t
Trace::threadTrack()
{
    sinkForThisThread();
    return t_slot.track;
}

void
Trace::push(Sink &sink, const Event &event)
{
    std::lock_guard<std::mutex> lock(sink.mutex);
    sink.ring[sink.head] = event;
    sink.head = (sink.head + 1) % sink.ring.size();
    ++sink.written;
}

void
Trace::record(EventType type, std::int32_t group,
              std::int64_t input_begin, std::int64_t input_end,
              double ts, std::int32_t track, std::int64_t arg)
{
    if (!enabled())
        return;
    Event event;
    event.seq = _nextSeq.fetch_add(1, std::memory_order_relaxed);
    event.type = type;
    event.group = group;
    event.inputBegin = input_begin;
    event.inputEnd = input_end;
    event.ts = ts;
    event.track = track;
    event.arg = arg;
    push(sinkForThisThread(), event);
}

void
Trace::recordSpan(const TaskTag &tag, double begin_ts, double end_ts,
                  std::int32_t track)
{
    if (!enabled() || tag.kind == TaskKind::None)
        return;
    Sink &sink = sinkForThisThread();
    const std::uint64_t seq =
        _nextSeq.fetch_add(2, std::memory_order_relaxed);

    Event event;
    event.seq = seq;
    event.type = spanStartEvent(tag.kind);
    event.group = tag.group;
    event.inputBegin = tag.inputBegin;
    event.inputEnd = tag.inputEnd;
    event.ts = begin_ts;
    event.track = track;
    event.arg = tag.arg;
    push(sink, event);

    event.seq = seq + 1;
    event.type = spanEndEvent(tag.kind);
    event.ts = end_ts;
    push(sink, event);
}

std::vector<Event>
Trace::collect() const
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    std::vector<Event> events;
    for (const auto &sink : _sinks) {
        std::lock_guard<std::mutex> sink_lock(sink->mutex);
        const std::size_t capacity = sink->ring.size();
        const std::size_t count =
            std::min<std::uint64_t>(sink->written, capacity);
        // Oldest surviving event first.
        std::size_t pos =
            sink->written > capacity ? sink->head : 0;
        for (std::size_t i = 0; i < count; ++i) {
            events.push_back(sink->ring[pos]);
            pos = (pos + 1) % capacity;
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.seq < b.seq; });
    return events;
}

void
Trace::clear()
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    _sinks.clear();
    // Invalidates every thread's cached sink.
    _epoch.fetch_add(1, std::memory_order_relaxed);
    _nextSeq.store(1, std::memory_order_relaxed);
}

std::uint64_t
Trace::dropped() const
{
    std::lock_guard<std::mutex> lock(_registryMutex);
    std::uint64_t dropped = 0;
    for (const auto &sink : _sinks) {
        std::lock_guard<std::mutex> sink_lock(sink->mutex);
        if (sink->written > sink->ring.size())
            dropped += sink->written - sink->ring.size();
    }
    return dropped;
}

} // namespace stats::obs
