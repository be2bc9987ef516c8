/**
 * @file
 * Executor backed by real OS threads.
 *
 * Used for functional execution on the host (and for wall-clock
 * profiling when real cores are available). Task `width` is advisory
 * here: a real task's inner parallelism lives inside its own code.
 *
 * Dispatch is frontier-first. STATS commits groups in input order, so
 * the oldest uncommitted group is always the critical path, and the
 * work that validates or recovers it must never queue behind new
 * speculation. Every submitted Task moves into a recycled
 * `TaskRecord` (a bounded lock-free freelist) and joins one ready
 * queue shared by all workers, ordered by `Task::tag.group` (untagged
 * tasks are group -1, so the bootstrap and the conventional run go
 * first; equal groups keep submission order). The pool only sees
 * interchangeable tokens: the worker that runs one pops the
 * lowest-group ready record, checks its cancel token there, and runs
 * it (a cancelled record skips its body but still completes). Tokens
 * go through the pool's one shared FIFO queue, from any thread, so a
 * ready task never waits behind a busy worker. The ready queue is a
 * binary heap under one mutex whose storage keeps its capacity, so the
 * submit → run → commit round trip stays allocation-free in steady
 * state.
 * SimExecutor stays strict FIFO (docs/INTERNALS.md §3).
 *
 * Completion runs in the commit lane — the serialized region every
 * completion callback runs in — a lock-free MPSC stack with a
 * combining drainer instead of a mutex: a finishing worker pushes its
 * record (one CAS) and either becomes the drainer or hands the
 * callback to the current one and goes straight back to scheduling.
 * Match-check → commit never blocks on a pool-wide lock
 * (docs/INTERNALS.md §4 documents the protocol and why drain() still
 * implies lane-empty).
 *
 * At most one completion callback executes at a time, matching the
 * simulator's semantics so the speculation engine runs unmodified on
 * either executor. Tasks with no callback never touch the lane.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <queue>
#include <tuple>
#include <vector>

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

    /** The pool's scheduler counters (executed, parks, ...). */
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

    /** A ready record, ordered by (group, submission order). */
    struct Ready
    {
        std::int32_t group;
        std::uint64_t seq;
        TaskRecord *rec;
    };
    struct RunsLater
    {
        bool
        operator()(const Ready &a, const Ready &b) const
        {
            return std::tie(a.group, a.seq) > std::tie(b.group, b.seq);
        }
    };

    void pushReady(Task task);
    threading::PoolTask token();
    void runNext();
    void runRecord(TaskRecord *rec, bool cancelled);
    TaskRecord *acquireRecord();
    void releaseRecord(TaskRecord *rec);
    void commitEnqueue(TaskRecord *rec);
    bool drainLane();

    RecordPool _records;

    /**
     * The ready queue every token pops from, lowest group first. Also
     * declared before the pool: tokens the pool drains at shutdown
     * still pop records here. The heap's vector keeps its capacity
     * between tasks, so steady-state pushes do not allocate.
     */
    std::mutex _readyMutex;
    std::priority_queue<Ready, std::vector<Ready>, RunsLater> _ready;
    std::uint64_t _readySeq = 0; ///< Guarded by `_readyMutex`.

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
