/**
 * @file
 * The plan scheduler: weighted deficit round-robin across tenant
 * queues, with cross-request batch formation (docs/SERVING.md §4).
 *
 * Admitted plans land in per-tenant queues ordered by
 * (priority desc, admission order). Dispatch walks the tenants in a
 * fixed rotation; each tenant accumulates `quantum × weight` deficit
 * when its turn starts and spends one unit per plan dispatched, so
 * over time tenants receive service proportional to their quota
 * weights regardless of how fast they submit.
 *
 * When the plan at the head of the selected queue is batchable
 * (sequential kind, `batchLanes > 1`), the scheduler scans *all*
 * queues — the owning tenant's first, then the rotation — for plans
 * with the same compatibility key and fuses up to
 * `min(batchLanes)` of them into one dispatch unit, which the runner
 * executes as the lanes of a single `ExecutableModule::callBatch`
 * loop. Cross-tenant members are charged against their own tenant's
 * deficit (it may go briefly negative: they were served early).
 *
 * Multi-worker dispatch: `nextBatch` takes the set of compatibility
 * keys currently in flight on other workers. A *batchable* head whose
 * key is already running is skipped — letting same-key arrivals
 * accumulate into one bigger fusion instead of racing it — while
 * plans under other keys (and all non-batchable plans) dispatch
 * normally. A skip never charges the tenant's deficit. The key is a
 * 64-bit hash computed once at enqueue: a collision only delays a
 * plan, while fusion itself compares the plans' fields.
 *
 * Not internally synchronized — the server owns the lock (the
 * scheduler runs on the server's worker threads plus, for enqueue,
 * the connection threads, never on the engine's hot path).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "serving/execution_plan.hpp"

namespace stats::serving {

struct AdmittedModule;

/** One admitted plan waiting for (or selected for) dispatch. */
struct QueuedPlan
{
    std::uint64_t requestId = 0;
    std::shared_ptr<const ExecutionPlan> plan;
    /** The plan's admitted module (IR kinds), when admission had one:
     *  the runner compiles from it instead of re-parsing. */
    std::shared_ptr<const AdmittedModule> admitted;
    /** plan->compatibilityKey(), computed once at enqueue. */
    std::uint64_t key = 0;
    /** Admission order, for FIFO within a priority level. */
    std::uint64_t seq = 0;
};

class PlanScheduler
{
  public:
    using Clock = std::function<double()>;

    /**
     * `quantum` is the deficit added per tenant visit (in plan
     * units); `clock` stamps the trace events this class emits.
     */
    explicit PlanScheduler(
        double quantum = 1.0, Clock clock = [] { return 0.0; });

    /** WDRR share for `tenant` (default 1; must be >= 1). */
    void setWeight(const std::string &tenant, int weight);

    /** Queue an admitted plan (emits PlanEnqueued). */
    void enqueue(std::uint64_t request_id,
                 std::shared_ptr<const ExecutionPlan> plan,
                 std::shared_ptr<const AdmittedModule> admitted = {});

    /** Plans currently queued for `tenant`. */
    std::size_t queuedFor(const std::string &tenant) const;

    /** Plans currently queued across all tenants. */
    std::size_t totalQueued() const;

    bool empty() const { return totalQueued() == 0; }

    /**
     * Select the next dispatch unit: one plan, or several compatible
     * sequential plans fused into a batch (emits PlanDispatched per
     * member and BatchFormed when fusion happened). Batchable plans
     * whose compatibility key appears in `blocked_keys` are passed
     * over (see the file comment). Empty when nothing is
     * dispatchable right now.
     */
    std::vector<QueuedPlan>
    nextBatch(const std::set<std::uint64_t> &blocked_keys = {});

    /** Would nextBatch(blocked_keys) return a non-empty unit? */
    bool
    dispatchable(const std::set<std::uint64_t> &blocked_keys) const;

  private:
    /** True when `queued` must yield to an in-flight same-key batch. */
    static bool isBlocked(const QueuedPlan &queued,
                          const std::set<std::uint64_t> &blocked_keys);
    struct TenantState
    {
        std::deque<QueuedPlan> queue;
        double deficit = 0.0;
        int weight = 1;
        /** Deficit already granted for the in-progress visit. */
        bool charged = false;
    };

    TenantState &stateFor(const std::string &tenant);
    void insertByPriority(TenantState &state, QueuedPlan item);

    double _quantum;
    Clock _clock;
    std::map<std::string, TenantState> _tenants;
    /** Fixed rotation order (first-seen order of tenants). */
    std::vector<std::string> _rotation;
    std::size_t _rrIndex = 0;
    std::uint64_t _nextSeq = 0;
};

} // namespace stats::serving
