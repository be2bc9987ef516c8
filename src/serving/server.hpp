/**
 * @file
 * The in-process serving core behind statsd (docs/SERVING.md §§3-5):
 * admission → tenant queues → WDRR dispatch → plan runner, plus the
 * request registry `status`/`result`/`replay-fetch` read from.
 *
 * The daemon (daemon.hpp) is a thin socket front-end over this class;
 * tests drive it directly. A pool of *execution workers*
 * (`Options.executionWorkers`) pulls fused batches from the
 * scheduler; record/replay state is scoped per run (the runner hands
 * a plan that records or injects faults a private ReplaySession of
 * its own), so independent plans execute concurrently without
 * mode-flip races. A compatibility-aware
 * in-flight limit keeps two batchable same-key dispatches from
 * running at once — late same-key arrivals accumulate into one
 * bigger fusion instead.
 *
 * Admission consults the server's **admitted-module table**
 * (AdmittedModuleTable, keyed by the exact module bytes): a known
 * module skips parse, middle end and lint, while the plan-level checks
 * run on every request. The runner compiles from the same table
 * entry.
 *
 * Results of cacheable plans land in a bounded LRU **result cache**
 * keyed by (plan fingerprint, root seed): a later submission of the
 * same work completes at admission time, byte-identical to a
 * recompute (replay-fetch bytes included). Plans opt out with
 * `noCache` (`stats-cli submit --no-cache`).
 *
 * Request lifecycle: Queued → Running → Done | Failed; a rejected
 * request never enters the registry (the verdict travels back in the
 * submit response). Finished entries evicted by the registry bound
 * answer Expired; ids never issued answer Unknown.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serving/admission.hpp"
#include "serving/execution_plan.hpp"
#include "serving/lru.hpp"
#include "serving/runner.hpp"
#include "serving/scheduler.hpp"

namespace stats::serving {

enum class RequestState : std::uint8_t
{
    Queued,
    Running,
    Done,
    Failed,
    Unknown, ///< No such request id was ever issued.
    Expired, ///< Finished, then aged out of the bounded registry.
};

const char *requestStateName(RequestState state);

/** What submit() decided. */
struct SubmitOutcome
{
    /** Valid when admitted (verdict.reason == None). */
    std::uint64_t requestId = 0;
    AdmissionVerdict verdict;

    bool admitted() const { return verdict.admitted(); }
};

/** Registry snapshot of one request. */
struct RequestStatus
{
    RequestState state = RequestState::Unknown;
    std::string tenant;
    /** Valid in Done/Failed states. */
    PlanResult result;
};

class Server
{
  public:
    struct Options
    {
        TenantQuota defaultQuota;
        /** Run the speculation-safety lint at admission. */
        bool runAnalysis = true;
        /** WDRR quantum (plan units granted per tenant visit). */
        double quantum = 1.0;
        /**
         * Finished requests kept for status/result/replay-fetch.
         * Beyond this, the oldest finished entries are evicted (their
         * ids then answer Expired), so a long-lived daemon's registry
         * stays bounded. 0 means keep everything.
         */
        std::size_t maxRetainedResults = 4096;
        /**
         * Execution worker threads pulling batches from the
         * scheduler. 0 picks the default: half the hardware
         * concurrency, at least 1.
         */
        std::size_t executionWorkers = 0;
        /**
         * Bound on resident (plan fingerprint, root seed) result-
         * cache entries, evicted LRU. 0 disables the cache.
         */
        std::size_t resultCacheCapacity = 256;
        /** Monotonic seconds; injectable for deterministic tests. */
        std::function<double()> clock;
    };

    Server();
    explicit Server(Options options);
    /** Drains in-flight work, then stops the workers. */
    ~Server();

    /** Configure one tenant (quota + scheduler weight). */
    void setQuota(const std::string &tenant, TenantQuota quota);

    /** Admit binary plan bytes (the wire form). */
    SubmitOutcome submit(const std::string &plan_bytes);

    /** Admit an already-decoded plan. */
    SubmitOutcome submitPlan(const ExecutionPlan &plan);

    /** Registry lookup (Unknown/Expired state for a bad id). */
    RequestStatus status(std::uint64_t request_id) const;

    /** Serialized RecordLog of a finished request; "" when absent. */
    std::string replayLog(std::uint64_t request_id) const;

    /**
     * Stop admitting (new submits reject with Draining), run every
     * queued plan, and return the number of requests completed over
     * the server's lifetime.
     */
    std::uint64_t drain();

    bool draining() const;

    /** Queued-but-not-dispatched plans right now. */
    std::size_t queueDepth() const;

    std::uint64_t completedCount() const;

    /** Worker threads actually running (for tests/diagnostics). */
    std::size_t workerCount() const { return _workers.size(); }

    /** Resident result-cache entries. */
    std::size_t resultCacheSize() const;

    /** Requests answered from the result cache so far. */
    std::uint64_t resultCacheHits() const;

  private:
    struct Request
    {
        RequestState state = RequestState::Queued;
        std::shared_ptr<const ExecutionPlan> plan;
        PlanResult result;
    };

    void workerLoop();
    /** Registry bookkeeping for one finished request (lock held). */
    void finishRequest(std::uint64_t request_id, PlanResult result);
    /** Result-cache insert + eviction (lock held). */
    void cacheStore(std::string key, const PlanResult &result);

    Options _options;
    mutable std::mutex _mutex;
    std::condition_variable _wake;     ///< Worker wake-up.
    std::condition_variable _idle;     ///< drain() waits here.
    AdmissionController _admission;
    /** Synchronized on its own; consulted outside `_mutex`. */
    AdmittedModuleTable _modules;
    PlanScheduler _scheduler;
    PlanRunner _runner;
    std::map<std::uint64_t, Request> _requests;
    /** Finished ids, oldest first — the eviction order. */
    std::deque<std::uint64_t> _finishedOrder;

    LruMap<PlanResult> _resultCache;
    std::uint64_t _cacheHits = 0;

    /** Compatibility keys of in-flight *batchable* dispatches. */
    std::set<std::uint64_t> _inFlightKeys;

    std::uint64_t _nextRequestId = 1;
    std::uint64_t _completed = 0;
    std::size_t _runningPlans = 0;
    bool _draining = false;
    bool _stop = false;
    std::vector<std::thread> _workers;
};

} // namespace stats::serving
