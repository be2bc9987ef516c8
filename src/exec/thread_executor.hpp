/**
 * @file
 * Executor backed by real OS threads.
 *
 * Used for functional execution on the host (and for wall-clock
 * profiling when real cores are available). Task `width` is advisory
 * here: a real task's inner parallelism lives inside its own code.
 *
 * Dispatch rides the work-stealing thread pool directly: pending
 * accounting, drain(), and the wall clock are the pool's own (a single
 * atomic counter and one steady timer), so this layer adds no locks to
 * the submit or completion fast paths. Two pieces make the whole
 * submit → run → commit round trip allocation- and lock-free in
 * steady state:
 *
 *  - every submitted Task moves into a recycled `TaskRecord` (a
 *    bounded lock-free freelist), so the pool closure captures only
 *    {executor, record} — 16 bytes, inside the job wrapper's inline
 *    storage. No heap allocation per submission after warm-up.
 *  - the commit lane — the serialized region every completion
 *    callback runs in — is a lock-free
 *    MPSC stack with a combining drainer instead of a mutex: a
 *    finishing worker pushes its record (one CAS) and either becomes
 *    the drainer or hands the callback to the current one and goes
 *    straight back to scheduling. Match-check → commit never blocks
 *    on a pool-wide lock (docs/INTERNALS.md §4 documents the
 *    protocol and why drain() still implies lane-empty).
 *
 * At most one completion callback executes at a time, matching the
 * simulator's semantics so the speculation engine runs unmodified on
 * either executor. Tasks with no callback never touch the lane.
 */

#pragma once

#include <atomic>
#include <cstdint>

#include "exec/task.hpp"
#include "threading/primitives.hpp"
#include "threading/thread_pool.hpp"

namespace stats::exec {

/** Executor running tasks on a shared thread pool, timed by the wall. */
class ThreadExecutor : public Executor
{
  public:
    /** Commit-lane / task-record counters (always on, relaxed). */
    struct CommitStats
    {
        std::uint64_t laneEnqueues = 0; ///< Callbacks pushed to the lane.
        std::uint64_t laneDeferred = 0; ///< Handed to an active drainer.
        std::uint64_t recordAllocs = 0; ///< Records taken from the heap.
        std::uint64_t recordReuses = 0; ///< Records recycled (freelist).
    };

    explicit ThreadExecutor(int threads);
    ~ThreadExecutor() override;

    void submit(Task task) override;

    /** Enqueue a group of tasks with one pool operation. */
    void submitBatch(std::vector<Task> tasks) override;

    /** Blocks until every submitted task (and its spawns) completed. */
    void drain() override;

    double now() const override;
    int concurrency() const override;

    /** The pool's scheduler counters (steals, parks, ...). */
    threading::ThreadPool::Stats schedulerStats() const
    {
        return _pool.stats();
    }

    CommitStats commitStats() const;

  private:
    struct TaskRecord;

    /**
     * Record storage. Declared *before* the pool so it outlives it:
     * the pool's drain-on-shutdown may still release records into
     * the freelist while this executor is being destroyed.
     */
    struct RecordPool
    {
        explicit RecordPool(std::size_t capacity);
        ~RecordPool();
        threading::MpmcBoundedQueue<TaskRecord *> free;
    };

    threading::PoolTask wrap(Task task);
    void runRecord(TaskRecord *rec, bool cancelled);
    TaskRecord *acquireRecord();
    void releaseRecord(TaskRecord *rec);
    void commitEnqueue(TaskRecord *rec);
    bool drainLane();

    RecordPool _records;

    /** Commit lane: Treiber stack head + single-drainer flag. */
    std::atomic<TaskRecord *> _laneHead{nullptr};
    std::atomic<bool> _laneActive{false};

    std::atomic<std::uint64_t> _laneEnqueues{0};
    std::atomic<std::uint64_t> _laneDeferred{0};
    std::atomic<std::uint64_t> _recordAllocs{0};
    std::atomic<std::uint64_t> _recordReuses{0};

    threading::ThreadPool _pool; ///< Last member: destroyed first.
};

} // namespace stats::exec
