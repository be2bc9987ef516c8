/**
 * @file
 * Structured speculation-event tracing (the observability layer's
 * event sink).
 *
 * The speculation engine and both executors record typed events —
 * task spans (auxiliary / body / re-execution / recovery runs) and
 * semantic instants (validations, rollbacks, commits, squashes) —
 * into per-thread ring buffers. The canonical schema, including every
 * event type's fields and its ordering guarantees relative to the
 * engine's group status machine, is docs/OBSERVABILITY.md; keep the
 * two in lockstep (tests/observability_test.cpp cross-checks them).
 *
 * Cost model:
 *  - compiled out entirely when STATS_OBS_ENABLED is 0 (the
 *    `traceActive()` gate folds to `false` and every instrumentation
 *    branch dies);
 *  - when compiled in but runtime-disabled, an instrumentation site
 *    costs one relaxed atomic load;
 *  - when enabled, recording is lock-light: one relaxed fetch_add on
 *    the global sequence counter plus a store into the caller's
 *    thread-local ring buffer. The only lock is taken once per
 *    thread per enable() epoch, to register the thread's sink.
 *
 * collect(), clear(), and disable() are *quiescent-time* operations:
 * call them only when no recording task is in flight (e.g. after
 * Executor::drain()/SpecEngine::join()). Idle pool workers may still
 * record park/unpark events then; clear() stays memory-safe against
 * them (each thread keeps its own sink alive), and what they record
 * meanwhile may be lost.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

/** Compile-time switch: 0 removes the layer entirely. */
#ifndef STATS_OBS_ENABLED
#define STATS_OBS_ENABLED 1
#endif

namespace stats::obs {

/**
 * Every event type the runtime emits. The schema is versioned by
 * kSchemaVersion; any change here must be mirrored in
 * docs/OBSERVABILITY.md and eventTypeName().
 */
enum class EventType : std::uint8_t
{
    // Task spans (recorded by the executors from task tags; Start/End
    // are emitted as one atomic pair with adjacent sequence numbers).
    AuxStart,      ///< Auxiliary run began (arg: 0).
    AuxEnd,        ///< Auxiliary run finished.
    BodyStart,     ///< Group body run began.
    BodyEnd,       ///< Group body run finished.
    ReExecStart,   ///< Producer re-execution began (arg: attempt #).
    ReExecEnd,     ///< Producer re-execution finished.
    RecoveryStart, ///< Sequential squash-recovery run began.
    RecoveryEnd,   ///< Sequential squash-recovery run finished.

    // Semantic instants (recorded by the engine inside serialized
    // completion callbacks; they land on the frontier track).
    ValidateMatch,    ///< Spec start accepted (arg: matched original).
    ValidateMismatch, ///< Spec start rejected (arg: re-execs done).
    Rollback,         ///< Producer rolled back (arg: attempt #).
    Commit,           ///< Group committed (arg: 0).
    Squash,           ///< Group squashed (arg: aborting group).
    Abort,            ///< Speculation aborted (arg: first squashed).
    FrontierAdvance,  ///< Commit frontier moved (arg: new frontier).
    TaskCancelled,    ///< Tagged task skipped via its cancel token.

    // Scheduler instants (recorded by the thread pool on the emitting
    // worker's own track; group is always -1).
    WorkerPark,   ///< Worker blocked after its spin phase (arg: 0).
    WorkerUnpark, ///< Parked worker woke up (arg: 0).
    QueueDepth,   ///< Pre-park snapshot: inputBegin = -1, inputEnd =
                  ///< shared-queue depth, arg = pool pending.

    // Record/replay instants (recorded by the engine and executors
    // when the replay session or a fault plan is engaged; see
    // docs/REPLAY.md).
    ReplayDivergence, ///< Replay left the recorded path (arg: epoch).
    FaultInjected,    ///< Fault-plan injection fired (arg: FaultKind).

    // Commit-pipeline instant (schema v4).
    CommitLaneEnqueue, ///< Serialized completion entered the commit
                       ///< lane (arg: 1 when the pushing worker became
                       ///< the drainer, 0 when handed off).

    // Serving-plane instants (schema v5; recorded by the statsd
    // control plane and plan scheduler, docs/SERVING.md). group is
    // always -1; inputBegin carries the request id when one exists.
    RequestAdmitted, ///< Request passed admission (arg: queue depth).
    RequestRejected, ///< Request rejected (arg: RejectReason ordinal).
    PlanEnqueued,    ///< Plan entered its tenant queue (arg: depth).
    PlanDispatched,  ///< Plan left a queue for execution (arg: batch
                     ///< size it was dispatched in; 1 = solo).
    BatchFormed,     ///< Compatible plans fused for one callBatch
                     ///< dispatch: inputBegin = lanes, arg = distinct
                     ///< tenants in the batch.
    TenantThrottled, ///< Tenant hit quota/queue bound (arg:
                     ///< RejectReason ordinal).
    CacheHit,        ///< (schema v6) Request served from the (plan,
                     ///< seed) result cache without executing
                     ///< (inputBegin: request id, arg: resident
                     ///< cache entries after the hit).
};

inline constexpr int kEventTypeCount = 29;
inline constexpr int kSchemaVersion = 8;

/** Stable name of an event type (as documented in the schema). */
const char *eventTypeName(EventType type);

/** True for the *Start half of a span pair. */
bool isSpanStart(EventType type);
/** True for the *End half of a span pair. */
bool isSpanEnd(EventType type);
/** True for events emitted by the scheduler rather than the engine. */
bool isSchedulerEvent(EventType type);
/** True for events emitted by the serving plane (statsd). */
bool isServingEvent(EventType type);

/** Track id carried by engine-emitted instants ("frontier" track). */
inline constexpr std::int32_t kFrontierTrack = -1;

/** One recorded event. Field semantics: docs/OBSERVABILITY.md. */
struct Event
{
    /** Global monotonic sequence number (total order across threads). */
    std::uint64_t seq = 0;

    EventType type = EventType::Commit;

    /** Group index, or -1 when not group-scoped. */
    std::int32_t group = -1;

    /** Input range [inputBegin, inputEnd) the event concerns; -1 n/a. */
    std::int64_t inputBegin = -1;
    std::int64_t inputEnd = -1;

    /** Executor clock, seconds: virtual (sim) or wall (threads). */
    double ts = 0.0;

    /**
     * Executor track: the first simulated logical core (SimExecutor)
     * or the worker-thread index (ThreadExecutor) the task ran on;
     * kFrontierTrack for engine-emitted instants.
     */
    std::int32_t track = kFrontierTrack;

    /** Type-specific argument (see the per-type docs above). */
    std::int64_t arg = 0;
};

/**
 * What kind of engine work a task performs; the executors turn a
 * non-None tag into the matching span pair (or TaskCancelled).
 */
enum class TaskKind : std::uint8_t
{
    None,
    Aux,
    Body,
    ReExec,
    Recovery,
};

/** Trace annotation the engine attaches to its tasks. */
struct TaskTag
{
    TaskKind kind = TaskKind::None;
    std::int32_t group = -1;
    std::int64_t inputBegin = -1;
    std::int64_t inputEnd = -1;
    /** Type-specific argument copied into both span events. */
    std::int64_t arg = 0;
};

/** Span event pair of a task kind (kind must not be None). */
EventType spanStartEvent(TaskKind kind);
EventType spanEndEvent(TaskKind kind);

/**
 * The process-wide trace: per-thread ring-buffer sinks behind one
 * enable/disable gate.
 */
class Trace
{
  public:
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    static Trace &global();

    /**
     * Start recording. Each recording thread gets a ring buffer of
     * `per_thread_capacity` events; when a ring is full the oldest
     * events are overwritten and counted in dropped().
     */
    void enable(std::size_t per_thread_capacity = kDefaultCapacity);

    /** Stop recording (buffers are kept until clear()). */
    void disable();

    bool enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }

    /** Record one instant event. No-op while disabled. */
    void record(EventType type, std::int32_t group,
                std::int64_t input_begin, std::int64_t input_end,
                double ts, std::int32_t track, std::int64_t arg = 0);

    /**
     * Record a Start/End span pair for a tagged task. The pair gets
     * adjacent sequence numbers, so exporters can rely on End
     * directly following Start in the collected order.
     */
    void recordSpan(const TaskTag &tag, double begin_ts, double end_ts,
                    std::int32_t track);

    /** Register the calling thread and return a stable track id. */
    std::int32_t threadTrack();

    /** All recorded events, merged and sorted by seq. Quiescent-time. */
    std::vector<Event> collect() const;

    /** Drop all recorded events (and the drop counter). Quiescent. */
    void clear();

    /** Events lost to ring-buffer wrap since enable()/clear(). */
    std::uint64_t dropped() const;

  private:
    struct Sink
    {
        /** Guards ring/head/written: the owning thread writes, any
         *  thread may collect()/dropped() concurrently. Uncontended
         *  on the record hot path. */
        mutable std::mutex mutex;
        std::vector<Event> ring; ///< Fixed capacity, overwritten FIFO.
        std::size_t head = 0;    ///< Next write position.
        std::uint64_t written = 0;
    };

    Trace();
    Sink &sinkForThisThread();
    void push(Sink &sink, const Event &event);

    mutable std::mutex _registryMutex;
    std::vector<std::shared_ptr<Sink>> _sinks;
    std::atomic<bool> _enabled{false};
    std::atomic<std::uint64_t> _nextSeq{1};
    std::atomic<std::int32_t> _nextTrack{0};
    std::atomic<std::uint64_t> _epoch{0};
    std::size_t _capacity = kDefaultCapacity;
};

/**
 * The gate every instrumentation site checks. Compiled out to `false`
 * when STATS_OBS_ENABLED is 0; otherwise one relaxed load.
 * Building with -DSTATS_OBS_FORCE=1 force-enables recording at
 * process start (used by the CI job that runs the whole suite with
 * the layer active).
 */
#if STATS_OBS_ENABLED
inline bool
traceActive()
{
    return Trace::global().enabled();
}
#else
constexpr bool
traceActive()
{
    return false;
}
#endif

} // namespace stats::obs
