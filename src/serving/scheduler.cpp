#include "serving/scheduler.hpp"

#include <algorithm>
#include <set>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/log.hpp"

namespace stats::serving {

PlanScheduler::PlanScheduler(double quantum, Clock clock)
    : _quantum(quantum), _clock(std::move(clock))
{
    if (quantum <= 0.0)
        support::panic("PlanScheduler: quantum must be positive");
}

PlanScheduler::TenantState &
PlanScheduler::stateFor(const std::string &tenant)
{
    auto it = _tenants.find(tenant);
    if (it == _tenants.end()) {
        it = _tenants.emplace(tenant, TenantState{}).first;
        _rotation.push_back(tenant);
    }
    return it->second;
}

void
PlanScheduler::setWeight(const std::string &tenant, int weight)
{
    if (weight < 1)
        support::panic("PlanScheduler: weight must be >= 1");
    stateFor(tenant).weight = weight;
}

void
PlanScheduler::insertByPriority(TenantState &state, QueuedPlan item)
{
    // Higher priority first; FIFO (by admission seq) within a level.
    auto pos = std::find_if(
        state.queue.begin(), state.queue.end(),
        [&](const QueuedPlan &queued) {
            return queued.plan->priority < item.plan->priority;
        });
    state.queue.insert(pos, std::move(item));
}

void
PlanScheduler::enqueue(std::uint64_t request_id,
                       std::shared_ptr<const ExecutionPlan> plan,
                       std::shared_ptr<const AdmittedModule> admitted)
{
    TenantState &state = stateFor(plan->tenant);
    QueuedPlan item;
    item.requestId = request_id;
    item.key = plan->compatibilityKey();
    item.plan = std::move(plan);
    item.admitted = std::move(admitted);
    item.seq = _nextSeq++;
    insertByPriority(state, std::move(item));
    obs::MetricsRegistry::global()
        .counter("serving.plans_enqueued")
        .add();
    if (obs::traceActive())
        obs::Trace::global().record(
            obs::EventType::PlanEnqueued, -1,
            static_cast<std::int64_t>(request_id), -1, _clock(),
            obs::kFrontierTrack,
            static_cast<std::int64_t>(state.queue.size()));
}

std::size_t
PlanScheduler::queuedFor(const std::string &tenant) const
{
    const auto it = _tenants.find(tenant);
    return it == _tenants.end() ? 0 : it->second.queue.size();
}

std::size_t
PlanScheduler::totalQueued() const
{
    std::size_t total = 0;
    for (const auto &[tenant, state] : _tenants)
        total += state.queue.size();
    return total;
}

bool
PlanScheduler::isBlocked(const QueuedPlan &queued,
                         const std::set<std::uint64_t> &blocked_keys)
{
    // Only batchable plans yield to an in-flight same-key batch:
    // holding them back lets same-key arrivals accumulate into one
    // bigger fusion. Non-batchable plans run concurrently freely
    // (the runner leases a private ExecutableModule per dispatch).
    return !blocked_keys.empty() && queued.plan->batchable() &&
           blocked_keys.count(queued.key) != 0;
}

bool
PlanScheduler::dispatchable(
    const std::set<std::uint64_t> &blocked_keys) const
{
    for (const auto &[tenant, state] : _tenants)
        for (const auto &queued : state.queue)
            if (!isBlocked(queued, blocked_keys))
                return true;
    return false;
}

std::vector<QueuedPlan>
PlanScheduler::nextBatch(const std::set<std::uint64_t> &blocked_keys)
{
    if (!dispatchable(blocked_keys))
        return {};

    // Classical DRR selection with unit plan cost: grant the quantum
    // once per visit, spend one unit per dispatched plan, move on
    // when the deficit runs dry. An idle tenant forfeits its deficit;
    // a tenant whose only work is key-blocked is passed over without
    // forfeiting (it is not idle by choice) and without charge.
    //
    // The loop is unbounded by design: a tenant's deficit can be
    // finitely negative (cross-tenant batch members are charged to
    // their own tenant), but some dispatchable plan exists here and
    // every full pass over the rotation grants quantum * weight >=
    // quantum to its tenant, so a selection is always reached.
    TenantState *selected = nullptr;
    std::deque<QueuedPlan>::iterator selected_plan;
    while (selected == nullptr) {
        TenantState &state = _tenants.at(_rotation[_rrIndex]);
        if (state.queue.empty()) {
            state.deficit = 0.0;
            state.charged = false;
            _rrIndex = (_rrIndex + 1) % _rotation.size();
            continue;
        }
        const auto eligible = std::find_if(
            state.queue.begin(), state.queue.end(),
            [&](const QueuedPlan &queued) {
                return !isBlocked(queued, blocked_keys);
            });
        if (eligible == state.queue.end()) {
            _rrIndex = (_rrIndex + 1) % _rotation.size();
            continue;
        }
        if (!state.charged) {
            state.deficit += _quantum * state.weight;
            state.charged = true;
        }
        if (state.deficit >= 1.0) {
            selected = &state;
            selected_plan = eligible;
            break;
        }
        state.charged = false;
        _rrIndex = (_rrIndex + 1) % _rotation.size();
    }

    std::vector<QueuedPlan> batch;
    batch.push_back(std::move(*selected_plan));
    selected->queue.erase(selected_plan);
    selected->deficit -= 1.0;

    const ExecutionPlan &head = *batch.front().plan;
    const std::uint64_t head_key = batch.front().key;
    if (head.batchable()) {
        // Batchable: fuse compatible plans — the owning tenant's
        // queue first, then the rotation — up to the smallest
        // batchLanes cap among the members.
        int cap = head.batchLanes;
        const auto harvest = [&](TenantState &state) {
            for (auto it = state.queue.begin();
                 it != state.queue.end() &&
                 static_cast<int>(batch.size()) < cap;) {
                // A candidate may only join if the batch, itself
                // included, fits under the smallest lane cap among
                // the members-so-far AND the candidate's own.
                if (it->key == head_key &&
                    head.canBatchWith(*it->plan) &&
                    static_cast<int>(batch.size()) <
                        std::min(cap, it->plan->batchLanes)) {
                    cap = std::min(cap, it->plan->batchLanes);
                    batch.push_back(std::move(*it));
                    it = state.queue.erase(it);
                    state.deficit -= 1.0;
                } else {
                    ++it;
                }
            }
        };
        harvest(*selected);
        for (const auto &tenant : _rotation) {
            if (static_cast<int>(batch.size()) >= cap)
                break;
            TenantState &state = _tenants.at(tenant);
            if (&state != selected)
                harvest(state);
        }
    }

    auto &metrics = obs::MetricsRegistry::global();
    metrics.counter("serving.plans_dispatched")
        .add(static_cast<std::int64_t>(batch.size()));
    const double now = _clock();
    if (batch.size() > 1) {
        metrics.counter("serving.batches_formed").add();
        metrics.histogram("serving.batch_lanes")
            .observe(static_cast<double>(batch.size()));
        if (obs::traceActive()) {
            std::set<std::string> tenants;
            for (const auto &member : batch)
                tenants.insert(member.plan->tenant);
            obs::Trace::global().record(
                obs::EventType::BatchFormed, -1,
                static_cast<std::int64_t>(batch.size()), -1, now,
                obs::kFrontierTrack,
                static_cast<std::int64_t>(tenants.size()));
        }
    }
    if (obs::traceActive())
        for (const auto &member : batch)
            obs::Trace::global().record(
                obs::EventType::PlanDispatched, -1,
                static_cast<std::int64_t>(member.requestId), -1, now,
                obs::kFrontierTrack,
                static_cast<std::int64_t>(batch.size()));
    return batch;
}

} // namespace stats::serving
