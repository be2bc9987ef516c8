#include "serving/server.hpp"

#include <chrono>

#include "observability/metrics.hpp"
#include "observability/trace.hpp"
#include "support/string_utils.hpp"

namespace stats::serving {

namespace {

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
countRejection(std::uint64_t request_id, const AdmissionVerdict &v,
               double now)
{
    auto &metrics = obs::MetricsRegistry::global();
    metrics.counter("serving.requests_rejected").add();
    metrics
        .counter(std::string("serving.rejected.") +
                 rejectReasonName(v.reason))
        .add();
    if (obs::traceActive()) {
        obs::Trace::global().record(
            obs::EventType::RequestRejected, -1,
            static_cast<std::int64_t>(request_id), -1, now,
            obs::kFrontierTrack,
            static_cast<std::int64_t>(v.reason));
        if (isBackpressure(v.reason))
            obs::Trace::global().record(
                obs::EventType::TenantThrottled, -1,
                static_cast<std::int64_t>(request_id), -1, now,
                obs::kFrontierTrack,
                static_cast<std::int64_t>(v.reason));
    }
}

std::size_t
defaultWorkerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 2 ? hw / 2 : 1;
}

} // namespace

const char *
requestStateName(RequestState state)
{
    switch (state) {
      case RequestState::Queued:  return "queued";
      case RequestState::Running: return "running";
      case RequestState::Done:    return "done";
      case RequestState::Failed:  return "failed";
      case RequestState::Unknown: return "unknown";
      case RequestState::Expired: return "expired";
    }
    return "?";
}

Server::Server() : Server(Options{}) {}

Server::Server(Options options)
    : _options(std::move(options)),
      _admission(_options.defaultQuota,
                 _options.clock ? _options.clock
                                : std::function<double()>(steadySeconds)),
      _modules(_options.runAnalysis),
      _scheduler(_options.quantum,
                 _options.clock ? _options.clock
                                : std::function<double()>(steadySeconds)),
      _resultCache(_options.resultCacheCapacity)
{
    const std::size_t workers = _options.executionWorkers > 0
                                    ? _options.executionWorkers
                                    : defaultWorkerCount();
    _workers.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        _workers.emplace_back([this] { workerLoop(); });
}

Server::~Server()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _draining = true;
        _stop = true;
    }
    _wake.notify_all();
    for (auto &worker : _workers)
        if (worker.joinable())
            worker.join();
}

void
Server::setQuota(const std::string &tenant, TenantQuota quota)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _admission.setQuota(tenant, quota);
    _scheduler.setWeight(tenant, quota.weight);
}

SubmitOutcome
Server::submit(const std::string &plan_bytes)
{
    SubmitOutcome outcome;
    std::string error;
    const auto plan = ExecutionPlan::load(plan_bytes, error);
    if (!plan) {
        outcome.verdict.reason =
            support::startsWith(error, "unsupported plan schema")
                ? RejectReason::VersionSkew
                : RejectReason::MalformedPlan;
        outcome.verdict.detail = error;
        const double now = _options.clock ? _options.clock()
                                          : steadySeconds();
        countRejection(0, outcome.verdict, now);
        return outcome;
    }
    return submitPlan(*plan);
}

SubmitOutcome
Server::submitPlan(const ExecutionPlan &plan)
{
    SubmitOutcome outcome;
    const double now =
        _options.clock ? _options.clock() : steadySeconds();

    // Semantic validation runs outside the lock: a module's first
    // admission parses and lints it, by far the heaviest stage.
    bool draining_snapshot;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        draining_snapshot = _draining;
    }
    if (draining_snapshot) {
        outcome.verdict.reason = RejectReason::Draining;
        outcome.verdict.detail = "server is draining";
        countRejection(0, outcome.verdict, now);
        return outcome;
    }
    std::shared_ptr<const AdmittedModule> admitted;
    if (plan.kind != JobKind::Benchmark)
        admitted = _modules.admit(plan.moduleText);
    outcome.verdict =
        AdmissionController::bindPlan(plan, admitted.get());
    if (!outcome.verdict.admitted()) {
        countRejection(0, outcome.verdict, now);
        return outcome;
    }

    // The cache key is computed outside the lock too (it serializes
    // the plan); it is only consulted for cacheable plans.
    const bool cacheable =
        !plan.noCache && _options.resultCacheCapacity > 0;
    std::string cache_key;
    if (cacheable)
        cache_key = plan.resultCacheKey();

    std::uint64_t request_id = 0;
    bool cache_hit = false;
    std::size_t cache_entries = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_draining) {
            outcome.verdict.reason = RejectReason::Draining;
            outcome.verdict.detail = "server is draining";
        } else {
            outcome.verdict = _admission.admitQuota(
                plan.tenant, _scheduler.queuedFor(plan.tenant));
        }
        if (outcome.verdict.admitted()) {
            request_id = _nextRequestId++;
            auto shared =
                std::make_shared<const ExecutionPlan>(plan);
            if (cacheable) {
                if (const PlanResult *hit =
                        _resultCache.find(cache_key)) {
                    // Served from cache: the request completes at
                    // admission time, byte-identical to a recompute
                    // (the cached entry holds result and RecordLog
                    // bytes of an actual execution).
                    Request request;
                    request.plan = shared;
                    _requests.emplace(request_id,
                                      std::move(request));
                    finishRequest(request_id, *hit);
                    cache_hit = true;
                    ++_cacheHits;
                    cache_entries = _resultCache.size();
                }
            }
            if (!cache_hit) {
                Request request;
                request.state = RequestState::Queued;
                request.plan = shared;
                _requests.emplace(request_id, std::move(request));
                _scheduler.enqueue(request_id, std::move(shared),
                                   std::move(admitted));
                obs::MetricsRegistry::global()
                    .gauge("serving.queue_depth")
                    .set(static_cast<double>(
                        _scheduler.totalQueued()));
            }
        }
    }
    if (!outcome.verdict.admitted()) {
        countRejection(0, outcome.verdict, now);
        return outcome;
    }

    outcome.requestId = request_id;
    auto &metrics = obs::MetricsRegistry::global();
    metrics.counter("serving.requests_admitted").add();
    if (cacheable)
        metrics
            .counter(cache_hit ? "serving.cache.hits"
                               : "serving.cache.misses")
            .add();
    if (obs::traceActive()) {
        obs::Trace::global().record(
            obs::EventType::RequestAdmitted, -1,
            static_cast<std::int64_t>(request_id), -1, now,
            obs::kFrontierTrack,
            static_cast<std::int64_t>(queueDepth()));
        if (cache_hit)
            obs::Trace::global().record(
                obs::EventType::CacheHit, -1,
                static_cast<std::int64_t>(request_id), -1, now,
                obs::kFrontierTrack,
                static_cast<std::int64_t>(cache_entries));
    }
    if (!cache_hit)
        _wake.notify_all();
    return outcome;
}

RequestStatus
Server::status(std::uint64_t request_id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    RequestStatus status;
    const auto it = _requests.find(request_id);
    if (it == _requests.end()) {
        // Every issued id enters the registry at admission and only
        // leaves by FIFO eviction, so an absent id below the
        // allocation watermark was necessarily evicted.
        if (request_id >= 1 && request_id < _nextRequestId)
            status.state = RequestState::Expired;
        return status;
    }
    status.state = it->second.state;
    status.tenant = it->second.plan->tenant;
    if (status.state == RequestState::Done ||
        status.state == RequestState::Failed)
        status.result = it->second.result;
    return status;
}

std::string
Server::replayLog(std::uint64_t request_id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _requests.find(request_id);
    return it == _requests.end() ? "" : it->second.result.recordLog;
}

std::uint64_t
Server::drain()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _draining = true;
    _wake.notify_all();
    _idle.wait(lock, [this] {
        return _scheduler.empty() && _runningPlans == 0;
    });
    return _completed;
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _draining;
}

std::size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _scheduler.totalQueued();
}

std::uint64_t
Server::completedCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _completed;
}

std::size_t
Server::resultCacheSize() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _resultCache.size();
}

std::uint64_t
Server::resultCacheHits() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _cacheHits;
}

void
Server::cacheStore(std::string key, const PlanResult &result)
{
    // A concurrent worker (or an earlier lane of this batch) may
    // already have filled the entry; results are deterministic, so
    // the insert then only refreshes recency.
    std::size_t evicted = 0;
    _resultCache.insert(std::move(key), result, &evicted);
    auto &metrics = obs::MetricsRegistry::global();
    if (evicted > 0)
        metrics.counter("serving.cache.evictions")
            .add(static_cast<std::int64_t>(evicted));
    metrics.gauge("serving.cache.size")
        .set(static_cast<double>(_resultCache.size()));
}

void
Server::finishRequest(std::uint64_t request_id, PlanResult result)
{
    Request &request = _requests.at(request_id);
    request.result = std::move(result);
    request.state = request.result.ok ? RequestState::Done
                                      : RequestState::Failed;
    ++_completed;
    _finishedOrder.push_back(request_id);
    if (_options.maxRetainedResults > 0)
        while (_finishedOrder.size() > _options.maxRetainedResults) {
            _requests.erase(_finishedOrder.front());
            _finishedOrder.pop_front();
        }
}

void
Server::workerLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        _wake.wait(lock, [this] {
            return (_stop && _scheduler.empty()) ||
                   _scheduler.dispatchable(_inFlightKeys);
        });
        if (_scheduler.empty()) {
            if (_stop)
                return;
            continue;
        }
        std::vector<QueuedPlan> batch =
            _scheduler.nextBatch(_inFlightKeys);
        if (batch.empty())
            continue; // Lost a race to another worker; re-wait.
        for (const auto &member : batch)
            _requests.at(member.requestId).state =
                RequestState::Running;
        const bool key_held = batch.front().plan->batchable();
        const std::uint64_t key = batch.front().key;
        if (key_held)
            _inFlightKeys.insert(key);
        _runningPlans += batch.size();
        obs::MetricsRegistry::global()
            .gauge("serving.queue_depth")
            .set(static_cast<double>(_scheduler.totalQueued()));

        // Execute outside the lock: submits, status reads, and the
        // other workers stay live while this batch runs.
        lock.unlock();
        std::vector<PlanResult> results = _runner.runBatch(batch);
        lock.lock();

        if (key_held)
            _inFlightKeys.erase(key);
        _runningPlans -= batch.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const ExecutionPlan &plan = *batch[i].plan;
            if (results[i].ok && !plan.noCache &&
                _options.resultCacheCapacity > 0)
                cacheStore(plan.resultCacheKey(), results[i]);
            finishRequest(batch[i].requestId,
                          std::move(results[i]));
        }
        obs::MetricsRegistry::global()
            .counter("serving.requests_completed")
            .add(static_cast<std::int64_t>(batch.size()));
        if (_scheduler.empty() && _runningPlans == 0)
            _idle.notify_all();
        // Finishing released this batch's key (and possibly the last
        // obstacle before _stop): re-arm the other workers.
        _wake.notify_all();
    }
}

} // namespace stats::serving
