#include "threading/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "observability/trace.hpp"
#include "support/log.hpp"
#include "threading/work_steal_deque.hpp"

namespace stats::threading {

namespace {

/** Injector ring capacity; beyond it submissions spill to overflow. */
constexpr std::size_t kInjectorCapacity = 32768;

/**
 * Steal/probe rounds an idle worker spins (yielding between rounds)
 * before parking. Deliberately small: on an oversubscribed host a
 * long spin phase steals cycles from the threads that have work.
 */
constexpr int kSpinRounds = 4;

/** Recycled deque nodes kept per worker before freeing to the heap. */
constexpr std::size_t kFreeNodeCap = 256;

/** Max tasks one successful steal round migrates (first + kept). */
constexpr std::size_t kStealBatchCap = 8;

/**
 * Spin round after which an empty-handed thief starts raiding
 * victims' next-task slots (see tryStealFrom). Late enough that a
 * continuation whose owner is merely between tasks is never taken;
 * early enough that a slot stranded behind a blocking task is found
 * within a few yields. Derived from kSpinRounds so the desperate
 * rounds can never be tuned out of existence: a spin phase that
 * parked without ever probing the slots would let a blocking task
 * strand its own submission until the park backstop — and with the
 * backstop alone, re-park forever without taking it.
 */
constexpr int kSlotStealRound = kSpinRounds / 2;

/** Injector tasks a worker runs per visit before re-probing. */
constexpr std::size_t kExternalBatch = 32;

/**
 * Timed-park backstop. The submit path orders its queue publish
 * against the parked-count probe with plain seq_cst accesses, not a
 * full fence (see wakeWorkers); the one theoretical interleaving
 * where both sides miss each other is healed here — a parked worker
 * re-probes the queues at this interval instead of sleeping forever.
 */
constexpr std::chrono::milliseconds kParkBackstop{1};

/** Identifies the pool (if any) the current thread works for. */
struct WorkerSlot
{
    const void *pool = nullptr;
    int index = -1;
};

thread_local WorkerSlot t_worker;

/** Owner-only counter bump: no RMW, just a relaxed load + store. */
inline void
bump(std::atomic<std::uint64_t> &counter, std::uint64_t n = 1)
{
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
}

} // namespace

/**
 * Heap node carrying one worker-submitted task through a Chase-Lev
 * deque (whose slots must be plain pointers). Externally submitted
 * tasks travel by value through the injector and never touch one.
 */
struct ThreadPool::TaskNode
{
    PoolTask task;
};

struct ThreadPool::Worker
{
    WorkStealDeque<TaskNode> deque{256};

    /**
     * The "next task" slot: a worker-side submission lands here when
     * the slot is free and runs immediately after the current task —
     * no deque traffic, no steal exposure, no wake. Only the owner
     * publishes into it (plain store after reading null); consumers
     * take it with an exchange, because there are two of them: the
     * owner's scheduling loop, and — as a last resort — a thief that
     * found nothing anywhere else (see tryStealFrom). The thief path
     * exists for liveness, not throughput: a task that blocks waiting
     * for work it just submitted would otherwise strand that work in
     * a slot nobody can see (the owner is busy blocking, and a
     * worker cannot park or exit with its slot occupied — the
     * scheduling loop consumes it first).
     */
    std::atomic<TaskNode *> nextSlot{nullptr};

    /** Node cache, touched only by this worker's own thread. */
    std::vector<TaskNode *> freeNodes;

    /**
     * Execution-side counters, sharded per worker and summed by
     * stats(). Written only by the owning thread with plain
     * load/store (no RMW); read by anyone, relaxed.
     */
    struct alignas(64) LocalStats
    {
        std::atomic<std::uint64_t> executed{0};
        std::atomic<std::uint64_t> cancelled{0};
        std::atomic<std::uint64_t> stolen{0};
        std::atomic<std::uint64_t> stealBatches{0};
        std::atomic<std::uint64_t> parks{0};
        std::atomic<std::uint64_t> unparks{0};
    };
    LocalStats local;

    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
    bool signaled = false; ///< Guarded by `mutex`.

    std::uint64_t rng = 0; ///< Victim-selection xorshift state.

    std::thread thread;

    ~Worker()
    {
        delete nextSlot.load(std::memory_order_relaxed);
        for (TaskNode *node : freeNodes)
            delete node;
    }
};

ThreadPool::ThreadPool(int threads) : _injector(kInjectorCapacity)
{
    const int n = std::max(1, threads);
    _workers.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto worker = std::make_unique<Worker>();
        worker->rng =
            (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1)) |
            1;
        _workers.push_back(std::move(worker));
    }
    // Start only after the worker array is fully built: workers probe
    // each other's deques from the first spin round.
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
    // so the queues are empty here; free defensively regardless.
    PoolTask task;
    while (popShared(task))
        task = PoolTask{};
    for (auto &worker : _workers)
        while (TaskNode *node = worker->deque.pop())
            delete node;
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
    if (t_worker.pool == this) {
        Worker &self = *_workers[static_cast<std::size_t>(t_worker.index)];
        if (self.nextSlot.load(std::memory_order_relaxed) == nullptr) {
            // Continuation fast path: park the task in the slot; the
            // scheduling loop runs it right after the current task.
            // Nothing to wake — a sibling only looks at the slot
            // after it found every queue empty. Only the owner
            // stores non-null, so load-then-store cannot double-
            // publish; the release pairs with the consumers'
            // acquire exchange.
            TaskNode *node;
            if (!self.freeNodes.empty()) {
                node = self.freeNodes.back();
                self.freeNodes.pop_back();
                node->task = std::move(task);
            } else {
                node = new TaskNode{std::move(task)};
            }
            self.nextSlot.store(node, std::memory_order_release);
            return;
        }
        enqueue(std::move(task));
        wakeForLocalSubmit();
    } else {
        enqueue(std::move(task));
        wakeWorkers(1);
    }
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
    if (t_worker.pool == this) {
        for (auto &task : tasks)
            enqueue(std::move(task));
    } else {
        pushShared(tasks);
    }
    wakeWorkers(tasks.size());
}

void
ThreadPool::inject(std::span<PoolTask> tasks)
{
    if (tasks.empty())
        return;
    for (const auto &task : tasks)
        if (!task.run)
            support::panic("ThreadPool::inject: empty job");
    _pending.fetch_add(tasks.size(), std::memory_order_acq_rel);
    pushShared(tasks);
    wakeWorkers(tasks.size());
}

void
ThreadPool::enqueue(PoolTask task)
{
    if (t_worker.pool == this) {
        // Worker-side submission: the Chase-Lev slots are pointers,
        // so wrap in a node — recycled via the worker's own freelist,
        // which only this thread touches.
        Worker &self = *_workers[static_cast<std::size_t>(t_worker.index)];
        TaskNode *node;
        if (!self.freeNodes.empty()) {
            node = self.freeNodes.back();
            self.freeNodes.pop_back();
            node->task = std::move(task);
        } else {
            node = new TaskNode{std::move(task)};
        }
        self.deque.push(node);
    } else {
        pushShared({&task, 1});
    }
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
 * worker is busy running, nothing to do: each probes the queues
 * again as soon as its current task finishes.
 *
 * Ordering: the previous revision issued a full seq_cst fence here to
 * close the store-buffering race against park() (publish task, then
 * probe parked-count vs. publish parked-count, then probe queues).
 * That fence taxed *every* external submission. It is now a plain
 * seq_cst load of the parked count: on the dominant paths this is
 * exactly as good (a seq_cst RMW in park() orders the worker side),
 * and the one residual interleaving where the submitter reads a stale
 * zero *and* the worker's re-probe misses the task is bounded by the
 * worker's timed-park backstop — it re-probes the queues within
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

/**
 * Wake decision for a task pushed to the submitting *worker's own*
 * deque. Unlike external submission, a missed wake here can never
 * cost liveness — the owner itself pops the task once its current
 * one finishes, waitIdle() completes, and shutdown signals every
 * worker — only momentary parallelism. So the hot path is two
 * relaxed loads and no fence: we only pay the scan protocol when a
 * sibling actually looks parked and nobody is already searching.
 */
void
ThreadPool::wakeForLocalSubmit()
{
    if (_spinners.load(std::memory_order_relaxed) > 0)
        return; // A searcher will find it without a syscall.
    if (_parkedCount.load(std::memory_order_relaxed) == 0)
        return; // Every sibling is busy or already searching.
    wakeWorkers(1);
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
 * finishMany): the injector path batches several executions into one
 * pending decrement, saving a seq_cst RMW per task. */
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
ThreadPool::runNode(TaskNode *node, Worker &self)
{
    PoolTask task = std::move(node->task);
    if (self.freeNodes.size() < kFreeNodeCap)
        self.freeNodes.push_back(node);
    else
        delete node;
    runTask(std::move(task), self);
    finishMany(1);
}

void
ThreadPool::workerLoop(int index)
{
    t_worker.pool = this;
    t_worker.index = index;
    Worker &self = *_workers[static_cast<std::size_t>(index)];
    for (;;) {
        if (runOneTask(self))
            continue;
        if (_shutdown.load(std::memory_order_acquire)) {
            // Drain-on-shutdown: exit only when no task is reachable
            // anywhere; a running sibling may still spawn into its
            // own deque or slot, which it drains itself before
            // exiting (the loop above consumes the slot first, so no
            // worker can exit with its slot occupied).
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
    // The next-task slot outranks everything: it is the tail of the
    // continuation chain the worker is already executing.
    if (TaskNode *node =
            self.nextSlot.exchange(nullptr, std::memory_order_acquire)) {
        runNode(node, self);
        return true;
    }
    if (TaskNode *node = self.deque.pop()) {
        runNode(node, self);
        return true;
    }
    PoolTask task;
    if (popShared(task)) {
        // Injector batch: drain up to kExternalBatch tasks in one
        // visit and retire them with a single pending decrement.
        // Batching delays waitIdle by at most the batch tail — it
        // can never release it early. A continuation parked in the
        // next-task slot interrupts the batch (it belongs to the
        // chain the slot task continues).
        std::size_t done = 0;
        for (;;) {
            runTask(std::move(task), self);
            ++done;
            if (done >= kExternalBatch ||
                self.nextSlot.load(std::memory_order_relaxed) !=
                    nullptr ||
                !popShared(task))
                break;
        }
        finishMany(done);
        return true;
    }
    // Spin-then-park: bounded stealing rounds, yielding between them
    // so co-scheduled threads with work make progress.
    _spinners.fetch_add(1, std::memory_order_seq_cst);
    TaskNode *node = nullptr;
    bool found = false;
    for (int round = 0; round < kSpinRounds; ++round) {
        node = tryStealFrom(self, round >= kSlotStealRound);
        if (node || popShared(task)) {
            found = true;
            break;
        }
        if (_shutdown.load(std::memory_order_relaxed))
            break;
        std::this_thread::yield();
    }
    _spinners.fetch_sub(1, std::memory_order_seq_cst);
    if (node) {
        runNode(node, self);
        return true;
    }
    if (found) {
        runTask(std::move(task), self);
        finishMany(1);
        return true;
    }
    return false;
}

/**
 * Steal-half: probe victims in randomized order; on a hit, take up to
 * half of the victim's visible backlog (capped at kStealBatchCap).
 * Chase-Lev tops can only be claimed one CAS at a time — a multi-item
 * CAS would race the owner's pop of non-last elements — so the batch
 * is a bounded run of single steals. The first task is returned to
 * run now; the rest go to the thief's own deque, where they are
 * cheaper to schedule than behind the victim's contended top (and
 * remain stealable by others).
 *
 * `desperate` additionally raids victims' next-task slots. That is
 * deliberately kept off the early spin rounds: the slot holds the
 * continuation its owner is about to run, and stealing it eagerly
 * would turn every continuation chain into cross-worker migration.
 * After several empty rounds the calculus flips — the only remaining
 * explanation for nonzero pending work is a slot whose owner is stuck
 * inside a long (or blocking) task, and leaving it there is a
 * liveness bug, not a locality win.
 */
ThreadPool::TaskNode *
ThreadPool::tryStealFrom(Worker &self, bool desperate)
{
    const std::size_t n = _workers.size();
    if (n <= 1)
        return nullptr;
    // xorshift64*: randomized victim order, distinct per worker.
    self.rng ^= self.rng >> 12;
    self.rng ^= self.rng << 25;
    self.rng ^= self.rng >> 27;
    const std::size_t start =
        static_cast<std::size_t>(self.rng * 0x2545f4914f6cdd1dull) % n;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t victim = (start + i) % n;
        Worker &other = *_workers[victim];
        if (&other == &self)
            continue;
        TaskNode *first = other.deque.steal();
        if (!first && desperate &&
            other.nextSlot.load(std::memory_order_relaxed) != nullptr)
            first = other.nextSlot.exchange(nullptr,
                                            std::memory_order_acquire);
        if (!first)
            continue;
        std::size_t extra = 0;
        const std::size_t want = std::min(
            other.deque.sizeApprox() / 2, kStealBatchCap - 1);
        for (; extra < want; ++extra) {
            TaskNode *node = other.deque.steal();
            if (!node)
                break;
            self.deque.push(node);
        }
        bump(self.local.stolen, 1 + extra);
        bump(self.local.stealBatches);
        if (obs::traceActive()) {
            obs::Trace &trace = obs::Trace::global();
            trace.record(obs::EventType::TaskStolen, -1, -1,
                         static_cast<std::int64_t>(1 + extra),
                         _clock.elapsedSeconds(),
                         trace.threadTrack(),
                         static_cast<std::int64_t>(victim));
        }
        return first;
    }
    return nullptr;
}

bool
ThreadPool::anyWorkVisible() const
{
    if (_injector.approxSize() > 0 ||
        _overflowSize.load(std::memory_order_acquire) > 0)
        return true;
    for (const auto &worker : _workers)
        if (worker->deque.sizeApprox() > 0 ||
            worker->nextSlot.load(std::memory_order_relaxed) !=
                nullptr)
            return true;
    return false;
}

void
ThreadPool::park(Worker &self)
{
    if (obs::traceActive()) {
        obs::Trace &trace = obs::Trace::global();
        trace.record(
            obs::EventType::QueueDepth, -1,
            static_cast<std::int64_t>(self.deque.sizeApprox()),
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
        stats.stolen += local.stolen.load(std::memory_order_relaxed);
        stats.stealBatches +=
            local.stealBatches.load(std::memory_order_relaxed);
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
