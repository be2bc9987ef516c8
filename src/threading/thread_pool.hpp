/**
 * @file
 * A fixed-size thread pool with one shared task queue.
 *
 * The paper's runtime "includes an efficient thread pool
 * implementation (shared with all state dependences) to minimize
 * thread creation overhead" (section 3.4). Every submission, from
 * any thread, takes the same path (docs/INTERNALS.md §4 "The thread
 * pool"):
 *
 *  - tasks travel by value through a bounded lock-free MPMC injector
 *    queue, with a mutex-protected overflow list behind it so
 *    submission never blocks or fails; workers pop in submission
 *    order, so nothing waits behind a busy worker;
 *  - idle workers spin a bounded number of rounds before parking on
 *    a per-worker condition variable with a timed backstop;
 *    submissions only pay a wake syscall when no worker is spinning;
 *  - completion accounting is a single atomic pending counter;
 *    waitIdle() blocks on it without touching any queue lock;
 *  - submitBatch() enqueues a whole group of tasks in one operation
 *    and performs one wake decision for the lot;
 *  - a task's cancellation flag is checked *before* dispatch, so a
 *    cancelled task never occupies a worker with real work.
 *
 * Shutdown semantics (explicit, tested): the destructor **drains** —
 * every job already submitted, plus any job spawned by a running job,
 * is executed before the workers exit. Use waitIdle() first if you
 * need a quiescent point; submitting from outside the pool while the
 * destructor runs is undefined (as it was for the global-queue pool).
 *
 * Scheduler observability: with the trace layer active the pool
 * records WorkerPark, WorkerUnpark, and QueueDepth events (schema:
 * docs/OBSERVABILITY.md §2); lightweight counters (`stats()`) are
 * always on.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/timer.hpp"
#include "threading/primitives.hpp"
#include "threading/unique_function.hpp"

namespace stats::threading {

/** Shared cancellation flag (the shape of exec::CancelToken). */
using CancelFlag = std::shared_ptr<std::atomic<bool>>;

/**
 * One unit of pool work. `run(cancelled)` is invoked exactly once on
 * a worker thread; `cancelled` is true when the cancel flag was set
 * before dispatch (the callee decides what a skipped task still does,
 * e.g. fire a completion callback).
 */
struct PoolTask
{
    UniqueFunction<void(bool cancelled)> run;

    /** Optional: checked once, immediately before dispatch. */
    CancelFlag cancel;
};

/** Fixed-size pool of workers sharing one FIFO task queue. */
class ThreadPool
{
  public:
    using Job = UniqueFunction<void()>;

    /**
     * Monotonic scheduler counters; always on. Worker-side counters
     * are sharded per worker (plain load/store on owner-only atomics,
     * no RMW on the execution fast path) and summed on read.
     */
    struct Stats
    {
        std::uint64_t submitted = 0; ///< Tasks accepted.
        std::uint64_t executed = 0;  ///< Tasks run (incl. cancelled).
        std::uint64_t cancelled = 0; ///< Tasks skipped via their flag.
        /// Always 0: the pool has no per-worker queues to steal
        /// from. Kept only because e2ebench still reads it.
        std::uint64_t stolen = 0;
        std::uint64_t parks = 0;     ///< Times a worker blocked.
        std::uint64_t unparks = 0;   ///< Times a parked worker woke.
    };

    /** Spawn `threads` workers (at least 1). */
    explicit ThreadPool(int threads);

    /** Joins all workers; pending jobs are completed first (drains). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a job (any nullary callable). Safe to call from worker
     * threads. A template rather than `submit(Job)`: wrapping the
     * caller's closure into a type-erased Job first and then into the
     * task's run function would nest one 56-byte wrapper inside
     * another, overflowing the small-buffer storage — a heap
     * allocation on every plain-lambda submission. Wrapping the
     * caller's closure exactly once keeps small captures inline.
     */
    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, PoolTask> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    void
    submit(F &&job)
    {
        // Callables with an emptiness state (std::function, Job)
        // must fail at submission, not when a worker invokes them.
        if constexpr (std::is_constructible_v<bool,
                                              std::decay_t<F> &>) {
            if (!job)
                panicEmptyJob();
        }
        PoolTask task;
        task.run = [fn = std::forward<F>(job)](bool) mutable {
            fn();
        };
        submit(std::move(task));
    }

    /** Enqueue a cancellable task. Safe to call from worker threads. */
    void submit(PoolTask task);

    /** Enqueue several tasks with a single wake decision. */
    void submitBatch(std::vector<PoolTask> tasks);

    /** Block until no submitted job (or job it spawned) remains. */
    void waitIdle();

    int threadCount() const { return static_cast<int>(_workers.size()); }

    /** Pool-lifetime wall clock, seconds (steady, starts at 0). */
    double clockSeconds() const { return _clock.elapsedSeconds(); }

    Stats stats() const;

  private:
    struct Worker;

    [[noreturn]] static void panicEmptyJob();

    void workerLoop(int index);
    bool runOneTask(Worker &self);
    bool popShared(PoolTask &out);
    void pushShared(std::span<PoolTask> tasks);
    bool anyWorkVisible() const;
    void wakeWorkers(std::size_t want);
    void runTask(PoolTask task, Worker &self);
    void finishMany(std::size_t n);
    void park(Worker &self);

    std::vector<std::unique_ptr<Worker>> _workers;
    // Tasks travel by value: with the job wrapper's inline storage a
    // small closure goes from submit() to a worker with zero heap
    // traffic.
    MpmcBoundedQueue<PoolTask> _injector;
    std::mutex _overflowMutex;
    std::deque<PoolTask> _overflow;
    std::atomic<std::size_t> _overflowSize{0};

    // `_pending` takes an RMW on every submit and every finished run,
    // while every submit reads `_parkedCount`: on one shared cache
    // line, each submit from another core would miss on both.
    alignas(64) std::atomic<std::size_t> _pending{0};
    alignas(64) std::atomic<int> _spinners{0};
    std::atomic<int> _parkedCount{0};
    std::atomic<bool> _shutdown{false};

    alignas(64) std::mutex _idleMutex;
    std::condition_variable _idleCv;
    std::atomic<int> _idleWaiters{0};

    support::Timer _clock;

    // No dedicated submission counter: stats() derives `submitted`
    // from the per-worker execution shards plus `_pending`, so the
    // submit fast path performs exactly one shared atomic RMW (the
    // pending count waitIdle depends on).
};

} // namespace stats::threading
