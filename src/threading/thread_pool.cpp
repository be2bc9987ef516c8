#include "threading/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "observability/trace.hpp"
#include "support/log.hpp"

namespace stats::threading {

namespace {

/** Injector ring capacity; beyond it submissions spill to overflow. */
constexpr std::size_t kInjectorCapacity = 32768;

/**
 * Probe rounds an idle worker spins (yielding between rounds) before
 * parking. Deliberately small: on an oversubscribed host a long spin
 * phase steals cycles from the threads that have work.
 */
constexpr int kSpinRounds = 4;

/** Tasks a worker runs per queue visit before re-probing. */
constexpr std::size_t kVisitBatch = 32;

/**
 * Timed-park backstop. The submit path orders its queue publish
 * against the parked-count probe with plain seq_cst accesses, not a
 * full fence (see wakeWorkers); the one theoretical interleaving
 * where both sides miss each other is healed here — a parked worker
 * re-probes the queue at this interval instead of sleeping forever.
 */
constexpr std::chrono::milliseconds kParkBackstop{1};

/** Owner-only counter bump: no RMW, just a relaxed load + store. */
inline void
bump(std::atomic<std::uint64_t> &counter, std::uint64_t n = 1)
{
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
}

} // namespace

struct ThreadPool::Worker
{
    /**
     * Execution-side counters, sharded per worker and summed by
     * stats(). Written only by the owning thread with plain
     * load/store (no RMW); read by anyone, relaxed.
     */
    struct alignas(64) LocalStats
    {
        std::atomic<std::uint64_t> executed{0};
        std::atomic<std::uint64_t> cancelled{0};
        std::atomic<std::uint64_t> parks{0};
        std::atomic<std::uint64_t> unparks{0};
    };
    LocalStats local;

    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
    bool signaled = false; ///< Guarded by `mutex`.

    std::thread thread;
};

ThreadPool::ThreadPool(int threads) : _injector(kInjectorCapacity)
{
    const int n = std::max(1, threads);
    _workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        _workers.push_back(std::make_unique<Worker>());
    // Start only after the worker array is fully built: wakeWorkers()
    // scans it from the first submission.
    for (int i = 0; i < n; ++i)
        _workers[i]->thread =
            std::thread([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    _shutdown.store(true, std::memory_order_seq_cst);
    for (auto &worker : _workers) {
        std::lock_guard<std::mutex> lock(worker->mutex);
        worker->signaled = true;
        worker->cv.notify_all();
    }
    for (auto &worker : _workers)
        worker->thread.join();
    // Drain-on-shutdown: workers exit only once no task is reachable,
    // so the queue is empty here; free defensively regardless.
    PoolTask task;
    while (popShared(task))
        task = PoolTask{};
}

void
ThreadPool::panicEmptyJob()
{
    support::panic("ThreadPool::submit: empty job");
}

void
ThreadPool::submit(PoolTask task)
{
    if (!task.run)
        support::panic("ThreadPool::submit: empty job");
    _pending.fetch_add(1, std::memory_order_acq_rel);
    pushShared({&task, 1});
    wakeWorkers(1);
}

void
ThreadPool::submitBatch(std::vector<PoolTask> tasks)
{
    if (tasks.empty())
        return;
    for (const auto &task : tasks)
        if (!task.run)
            support::panic("ThreadPool::submitBatch: empty job");
    _pending.fetch_add(tasks.size(), std::memory_order_acq_rel);
    pushShared(tasks);
    wakeWorkers(tasks.size());
}

/** Fill the lock-free ring, then spill the remainder to the overflow
 * list under a single lock for the whole batch. */
void
ThreadPool::pushShared(std::span<PoolTask> tasks)
{
    std::size_t i = 0;
    while (i < tasks.size() && _injector.tryPushFrom(tasks[i]))
        ++i;
    if (i == tasks.size())
        return;
    std::lock_guard<std::mutex> lock(_overflowMutex);
    for (; i < tasks.size(); ++i)
        _overflow.push_back(std::move(tasks[i]));
    _overflowSize.store(_overflow.size(), std::memory_order_release);
}

bool
ThreadPool::popShared(PoolTask &out)
{
    if (auto task = _injector.tryPop()) {
        out = std::move(*task);
        return true;
    }
    if (_overflowSize.load(std::memory_order_acquire) == 0)
        return false;
    std::lock_guard<std::mutex> lock(_overflowMutex);
    if (_overflow.empty())
        return false;
    out = std::move(_overflow.front());
    _overflow.pop_front();
    // Bulk-refill the ring while we hold the lock: the spill drains
    // back through the lock-free injector instead of costing every
    // worker one mutex round trip per task.
    while (!_overflow.empty() &&
           _injector.tryPushFrom(_overflow.front()))
        _overflow.pop_front();
    _overflowSize.store(_overflow.size(), std::memory_order_release);
    return true;
}

/**
 * Wake up to `want` workers for freshly enqueued work. Spinning
 * workers count toward the target (they will find the tasks without a
 * syscall); beyond that, parked workers are unparked. When every
 * worker is busy running, nothing to do: each probes the queue
 * again as soon as its current task finishes.
 *
 * Ordering: the previous revision issued a full seq_cst fence here to
 * close the store-buffering race against park() (publish task, then
 * probe parked-count vs. publish parked-count, then probe the queue).
 * That fence taxed *every* external submission. It is now a plain
 * seq_cst load of the parked count: on the dominant paths this is
 * exactly as good (a seq_cst RMW in park() orders the worker side),
 * and the one residual interleaving where the submitter reads a stale
 * zero *and* the worker's re-probe misses the task is bounded by the
 * worker's timed-park backstop — it re-probes the queue within
 * kParkBackstop instead of sleeping forever. A lost wake is thereby a
 * latency blip, never a liveness bug (docs/INTERNALS.md §4).
 */
void
ThreadPool::wakeWorkers(std::size_t want)
{
    if (_parkedCount.load(std::memory_order_seq_cst) == 0)
        return; // Nobody parked: spinners/busy workers will probe.
    const auto spinning = static_cast<std::size_t>(
        std::max(0, _spinners.load(std::memory_order_relaxed)));
    if (spinning >= want)
        return;
    std::size_t woken = 0;
    for (auto &worker : _workers) {
        if (spinning + woken >= want)
            break;
        if (!worker->parked.load(std::memory_order_relaxed))
            continue;
        std::lock_guard<std::mutex> lock(worker->mutex);
        if (!worker->parked.load(std::memory_order_relaxed))
            continue; // Woke on its own while we took the lock.
        // The waker retires the registration, not the wakee: the
        // parked count drops to its true value immediately, so the
        // submit fast path stops probing workers the moment every
        // parked one has a wake in flight — not only once the woken
        // threads get CPU time and deregister themselves (an
        // unbounded window on an oversubscribed host, during which
        // every submit would scan the whole worker array).
        worker->parked.store(false, std::memory_order_relaxed);
        _parkedCount.fetch_sub(1, std::memory_order_relaxed);
        worker->signaled = true;
        worker->cv.notify_one();
        ++woken;
    }
}

void
ThreadPool::waitIdle()
{
    if (_pending.load(std::memory_order_acquire) == 0)
        return;
    // Registration and the pending re-check are both seq_cst, pairing
    // with finishMany()'s seq_cst decrement + waiter load: either the
    // decrementer sees us registered (and notifies under the mutex),
    // or our re-check sees pending == 0.
    _idleWaiters.fetch_add(1, std::memory_order_seq_cst);
    {
        std::unique_lock<std::mutex> lock(_idleMutex);
        _idleCv.wait(lock, [this] {
            return _pending.load(std::memory_order_seq_cst) == 0;
        });
    }
    _idleWaiters.fetch_sub(1, std::memory_order_relaxed);
}

void
ThreadPool::finishMany(std::size_t n)
{
    if (_pending.fetch_sub(n, std::memory_order_seq_cst) != n)
        return;
    // Reached zero. Waiters register (seq_cst) before re-checking the
    // counter, so either we see them here or they see zero pending.
    if (_idleWaiters.load(std::memory_order_seq_cst) > 0) {
        std::lock_guard<std::mutex> lock(_idleMutex);
        _idleCv.notify_all();
    }
}

/** Execute one task. Completion accounting is the caller's (see
 * finishMany): a worker batches several executions into one pending
 * decrement, saving a seq_cst RMW per task. */
void
ThreadPool::runTask(PoolTask task, Worker &self)
{
    const bool cancelled =
        task.cancel && task.cancel->load(std::memory_order_acquire);
    if (cancelled)
        bump(self.local.cancelled);
    task.run(cancelled);
    // Destroy the closure before publishing completion: once
    // waitIdle() returns, no captured state is still alive on a
    // worker (matches the behavior callers relied on before).
    task = PoolTask{};
    bump(self.local.executed);
}

void
ThreadPool::workerLoop(int index)
{
    Worker &self = *_workers[static_cast<std::size_t>(index)];
    for (;;) {
        if (runOneTask(self))
            continue;
        if (_shutdown.load(std::memory_order_acquire)) {
            // Drain-on-shutdown: exit only when the queue looks
            // empty. A running sibling may still spawn more; it finds
            // that task itself once its current one finishes.
            if (!anyWorkVisible())
                return;
            std::this_thread::yield();
            continue;
        }
        park(self);
    }
}

bool
ThreadPool::runOneTask(Worker &self)
{
    PoolTask task;
    bool found = popShared(task);
    if (!found) {
        // Spin-then-park: bounded probe rounds, yielding between
        // them so co-scheduled threads with work make progress.
        _spinners.fetch_add(1, std::memory_order_seq_cst);
        for (int round = 0; round < kSpinRounds; ++round) {
            if (_shutdown.load(std::memory_order_relaxed))
                break;
            std::this_thread::yield();
            if ((found = popShared(task)))
                break;
        }
        _spinners.fetch_sub(1, std::memory_order_seq_cst);
        if (!found)
            return false;
    }
    // Drain up to kVisitBatch tasks in one visit and retire them
    // with a single pending decrement. Batching delays waitIdle by at
    // most the batch tail — it can never release it early.
    std::size_t done = 0;
    for (;;) {
        runTask(std::move(task), self);
        ++done;
        if (done >= kVisitBatch || !popShared(task))
            break;
    }
    finishMany(done);
    return true;
}

bool
ThreadPool::anyWorkVisible() const
{
    return _injector.approxSize() > 0 ||
           _overflowSize.load(std::memory_order_acquire) > 0;
}

void
ThreadPool::park(Worker &self)
{
    if (obs::traceActive()) {
        obs::Trace &trace = obs::Trace::global();
        trace.record(
            obs::EventType::QueueDepth, -1, -1,
            static_cast<std::int64_t>(_injector.approxSize() +
                                      _overflowSize.load(
                                          std::memory_order_relaxed)),
            _clock.elapsedSeconds(), trace.threadTrack(),
            static_cast<std::int64_t>(
                _pending.load(std::memory_order_relaxed)));
    }
    std::unique_lock<std::mutex> lock(self.mutex);
    self.parked.store(true, std::memory_order_seq_cst);
    _parkedCount.fetch_add(1, std::memory_order_seq_cst);
    // The seq_cst RMW above orders the parked-count publish before
    // the final work probe; it pairs with wakeWorkers()'s seq_cst
    // parked-count load. A concurrent submitter either reads a
    // nonzero count (and unparks us) or we see its task here — and
    // should both probes slip through the one unfenced window, the
    // timed wait below re-probes within kParkBackstop.
    if (anyWorkVisible() || self.signaled ||
        _shutdown.load(std::memory_order_seq_cst)) {
        self.parked.store(false, std::memory_order_relaxed);
        _parkedCount.fetch_sub(1, std::memory_order_relaxed);
        self.signaled = false;
        return;
    }
    bump(self.local.parks);
    if (obs::traceActive()) {
        obs::Trace &trace = obs::Trace::global();
        trace.record(obs::EventType::WorkerPark, -1, -1, -1,
                     _clock.elapsedSeconds(), trace.threadTrack(), 0);
    }
    for (;;) {
        const bool woken = self.cv.wait_for(lock, kParkBackstop, [&] {
            return self.signaled ||
                   _shutdown.load(std::memory_order_relaxed);
        });
        if (woken)
            break;
        if (anyWorkVisible())
            break; // Backstop: a wake was lost; go find the task.
    }
    self.signaled = false;
    // A waker that signaled us already retired the registration (see
    // wakeWorkers); only a self-initiated wake — the timed backstop or
    // shutdown — still holds it. Both sides mutate `parked` under
    // `self.mutex`, so the flag decides ownership unambiguously.
    if (self.parked.load(std::memory_order_relaxed)) {
        self.parked.store(false, std::memory_order_relaxed);
        _parkedCount.fetch_sub(1, std::memory_order_relaxed);
    }
    bump(self.local.unparks);
    if (obs::traceActive()) {
        obs::Trace &trace = obs::Trace::global();
        trace.record(obs::EventType::WorkerUnpark, -1, -1, -1,
                     _clock.elapsedSeconds(), trace.threadTrack(), 0);
    }
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats stats;
    for (const auto &worker : _workers) {
        const auto &local = worker->local;
        stats.executed +=
            local.executed.load(std::memory_order_relaxed);
        stats.cancelled +=
            local.cancelled.load(std::memory_order_relaxed);
        stats.parks += local.parks.load(std::memory_order_relaxed);
        stats.unparks +=
            local.unparks.load(std::memory_order_relaxed);
    }
    // Submitted is derived, not counted: a dedicated shared counter
    // would cost one more RMW on every submit for a number that is
    // always "everything that ran plus everything still pending".
    // Exact whenever the pool is externally quiescent (after
    // waitIdle); transiently approximate while tasks are in flight.
    stats.submitted =
        stats.executed + _pending.load(std::memory_order_relaxed);
    return stats;
}

} // namespace stats::threading
