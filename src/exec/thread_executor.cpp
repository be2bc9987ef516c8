#include "exec/thread_executor.hpp"

#include <chrono>
#include <thread>

#include "observability/trace.hpp"
#include "replay/session.hpp"
#include "support/log.hpp"

namespace stats::exec {

namespace {

/** Task records kept for reuse; beyond this they return to the heap. */
constexpr std::size_t kRecordCacheCapacity = 1024;

} // namespace

/**
 * One in-flight task. The Task body lives here (not in the pool
 * token); `next` links the record through the commit lane while its
 * callback waits its turn.
 */
struct ThreadExecutor::TaskRecord
{
    Task task;
    std::atomic<TaskRecord *> next{nullptr};
};

ThreadExecutor::RecordPool::RecordPool(std::size_t capacity)
    : free(capacity)
{
}

ThreadExecutor::RecordPool::~RecordPool()
{
    while (auto rec = free.tryPop())
        delete *rec;
}

ThreadExecutor::ThreadExecutor(int threads)
    : _records(kRecordCacheCapacity), _pool(threads)
{
}

ThreadExecutor::~ThreadExecutor() = default;

ThreadExecutor::TaskRecord *
ThreadExecutor::acquireRecord()
{
    if (auto rec = _records.free.tryPop()) {
        _recordReuses.fetch_add(1, std::memory_order_relaxed);
        return *rec;
    }
    _recordAllocs.fetch_add(1, std::memory_order_relaxed);
    return new TaskRecord;
}

void
ThreadExecutor::releaseRecord(TaskRecord *rec)
{
    // Drop the captured state before the record becomes reusable:
    // once drain() returns, no task closure is still alive.
    rec->task = Task{};
    rec->next.store(nullptr, std::memory_order_relaxed);
    TaskRecord *pointer = rec;
    if (!_records.free.tryPushFrom(pointer))
        delete rec;
}

/**
 * Move an exec::Task into a recycled record and add it to the ready
 * queue, keyed by (group, submission order). Untagged tasks carry
 * group -1 and therefore go first.
 */
void
ThreadExecutor::pushReady(Task task)
{
    TaskRecord *rec = acquireRecord();
    rec->task = std::move(task);
    const std::int32_t group = rec->task.tag.group;
    std::lock_guard<std::mutex> lock(_readyMutex);
    _ready.push({group, _readySeq++, rec});
}

/**
 * One interchangeable pool token. The pool closure captures only the
 * executor — always inside the job wrapper's inline storage, so the
 * submit path performs no heap allocation in steady state.
 */
threading::PoolTask
ThreadExecutor::token()
{
    threading::PoolTask pooled;
    pooled.run = [this](bool) { runNext(); };
    return pooled;
}

/**
 * Body of every token: take the oldest group's ready record and run
 * it. Each submission pushes its record before its token, so the
 * queue is never empty here. Cancellation is checked at the pop: a
 * cancelled record skips its body but still completes.
 */
void
ThreadExecutor::runNext()
{
    TaskRecord *rec;
    {
        std::lock_guard<std::mutex> lock(_readyMutex);
        if (_ready.empty())
            support::panic("ThreadExecutor: token without a ready task");
        rec = _ready.top().rec;
        _ready.pop();
    }
    const CancelToken &cancel = rec->task.cancel;
    runRecord(rec, cancel && cancel->load(std::memory_order_acquire));
}

void
ThreadExecutor::runRecord(TaskRecord *rec, bool cancelled)
{
    Task &task = rec->task;
    const bool traced =
        obs::traceActive() && task.tag.kind != obs::TaskKind::None;
    if (!cancelled) {
        // StalledWorker fault: delay the task on its worker before
        // dispatch. Timing-only — the stall is deliberately NOT part
        // of the record log, so a stalled recording replays cleanly
        // without the plan (stalls perturb interleaving, not the
        // engine's decision sequence; see docs/REPLAY.md §4).
        if (task.tag.kind != obs::TaskKind::None) {
            auto &session = replay::ReplaySession::global();
            const double stall = session.taskStallSeconds(
                static_cast<int>(task.tag.kind), task.tag.group);
            if (stall > 0.0) {
                session.countExternalFault(
                    replay::FaultKind::StalledWorker);
                if (traced) {
                    obs::Trace &trace = obs::Trace::global();
                    trace.record(
                        obs::EventType::FaultInjected, task.tag.group,
                        task.tag.inputBegin, task.tag.inputEnd,
                        _pool.clockSeconds(), trace.threadTrack(),
                        static_cast<std::int64_t>(
                            replay::FaultKind::StalledWorker));
                }
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(stall));
            }
        }
        const double begin = _pool.clockSeconds();
        task.run();
        if (traced) {
            // Track = this worker thread; recorded before the
            // serialized onComplete so engine instants sequence
            // after the span that triggered them.
            obs::Trace &trace = obs::Trace::global();
            trace.recordSpan(task.tag, begin, _pool.clockSeconds(),
                             trace.threadTrack());
        }
    } else if (traced) {
        obs::Trace::global().record(
            obs::EventType::TaskCancelled, task.tag.group,
            task.tag.inputBegin, task.tag.inputEnd,
            _pool.clockSeconds(), obs::kFrontierTrack, task.tag.arg);
    }
    if (!task.onComplete) {
        releaseRecord(rec); // Pure execution: completes lock-free.
        return;
    }
    commitEnqueue(rec);
}

/**
 * The commit lane: the speculation engine's commit protocol relies
 * on at-most-one serialized callback running at a time. Instead of a
 * mutex, finishing workers push their record onto a Treiber stack
 * (one CAS) and exactly one of them — the *drainer* — runs the
 * queued callbacks in arrival order. A worker that loses the drainer
 * election returns to scheduling immediately; its callback is
 * guaranteed to run because the drainer re-checks the stack after
 * releasing the active flag (all lane accesses are seq_cst, so in
 * the single total order either the drainer's re-check sees the late
 * push, or the pusher's election sees the drainer gone and wins).
 *
 * drain()/waitIdle still implies lane-empty: a drainer runs inside
 * some task's pool closure, whose pending count is not retired until
 * the closure returns — so the pool cannot report idle while any
 * callback is queued or running (docs/INTERNALS.md §4).
 */
void
ThreadExecutor::commitEnqueue(TaskRecord *rec)
{
    _laneEnqueues.fetch_add(1, std::memory_order_relaxed);
    const bool traced =
        obs::traceActive() && rec->task.tag.kind != obs::TaskKind::None;
    const obs::TaskTag tag = rec->task.tag; // rec may die in drainLane.
    TaskRecord *head = _laneHead.load(std::memory_order_relaxed);
    do {
        rec->next.store(head, std::memory_order_relaxed);
    } while (!_laneHead.compare_exchange_weak(
        head, rec, std::memory_order_seq_cst,
        std::memory_order_relaxed));
    const bool drained = drainLane();
    if (!drained)
        _laneDeferred.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
        obs::Trace &trace = obs::Trace::global();
        trace.record(obs::EventType::CommitLaneEnqueue, tag.group,
                     tag.inputBegin, tag.inputEnd,
                     _pool.clockSeconds(), trace.threadTrack(),
                     drained ? 1 : 0);
    }
}

/** Try to become the lane drainer; returns true when this call ran
 * the queued callbacks (its own included). */
bool
ThreadExecutor::drainLane()
{
    bool drained = false;
    for (;;) {
        if (_laneActive.exchange(true, std::memory_order_seq_cst))
            return drained; // An active drainer owns the lane.
        drained = true;
        // Drain everything visible. The stack pops newest-first, so
        // reverse each grab to run callbacks in arrival order.
        while (TaskRecord *chain =
                   _laneHead.exchange(nullptr,
                                      std::memory_order_seq_cst)) {
            TaskRecord *ordered = nullptr;
            while (chain) {
                TaskRecord *next =
                    chain->next.load(std::memory_order_relaxed);
                chain->next.store(ordered, std::memory_order_relaxed);
                ordered = chain;
                chain = next;
            }
            while (ordered) {
                TaskRecord *next =
                    ordered->next.load(std::memory_order_relaxed);
                ordered->task.onComplete();
                releaseRecord(ordered);
                ordered = next;
            }
        }
        _laneActive.store(false, std::memory_order_seq_cst);
        // Release-recheck: a record pushed between the last grab and
        // the release above would otherwise strand until the next
        // enqueue. Seq_cst makes the race two-sided — either we see
        // it here (and re-elect ourselves), or its pusher saw the
        // lane inactive and became the drainer.
        if (_laneHead.load(std::memory_order_seq_cst) == nullptr)
            return drained;
    }
}

void
ThreadExecutor::submit(Task task)
{
    pushReady(std::move(task));
    _pool.submit(token());
}

void
ThreadExecutor::submitBatch(std::vector<Task> tasks)
{
    for (auto &task : tasks)
        pushReady(std::move(task));
    std::vector<threading::PoolTask> pooled(tasks.size());
    for (auto &one : pooled)
        one = token();
    _pool.submitBatch(std::move(pooled));
}

void
ThreadExecutor::drain()
{
    _pool.waitIdle();
}

double
ThreadExecutor::now() const
{
    return _pool.clockSeconds();
}

int
ThreadExecutor::concurrency() const
{
    return _pool.threadCount();
}

ThreadExecutor::CommitStats
ThreadExecutor::commitStats() const
{
    CommitStats stats;
    stats.laneEnqueues =
        _laneEnqueues.load(std::memory_order_relaxed);
    stats.laneDeferred =
        _laneDeferred.load(std::memory_order_relaxed);
    stats.recordAllocs =
        _recordAllocs.load(std::memory_order_relaxed);
    stats.recordReuses =
        _recordReuses.load(std::memory_order_relaxed);
    return stats;
}

} // namespace stats::exec
