#include "serving/runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "backend/backend.hpp"
#include "benchmarks/common/benchmark.hpp"
#include "ir/bytecode.hpp"
#include "observability/metrics.hpp"
#include "replay/record_log.hpp"
#include "replay/session.hpp"
#include "serving/admission.hpp"
#include "support/seed_sequence.hpp"
#include "testing/oracle.hpp"

namespace stats::serving {

namespace {

using testing::interpStep;
using testing::noiseFor;
using testing::wrapState;

/** Deterministic result bytes: varint count + zigzag states. */
std::string
encodeStates(const std::vector<long long> &states)
{
    std::string out;
    replay::putVarint(out, states.size());
    for (const long long state : states)
        replay::putVarint(out, replay::zigzagEncode(state));
    return out;
}

std::string
encodeSignature(const std::vector<double> &signature)
{
    std::string out;
    replay::putVarint(out, signature.size());
    for (const double value : signature) {
        std::uint64_t bits = 0;
        __builtin_memcpy(&bits, &value, sizeof bits);
        replay::putVarint(out, bits);
    }
    return out;
}

/**
 * Why `exec` cannot run `fn` as f(integer input, integer state), the
 * way every served run calls a state dependence; "" when it can. The
 * interpreter panics on a wrong arity, and the forced bytecode tier
 * on a call it cannot take.
 */
std::string
callingConventionProblem(const ir::ExecutableModule &exec,
                         const std::string &fn)
{
    if (exec.module().findFunction(fn)->params.size() != 2)
        return "@" + fn + " must take (input, state)";
    if (exec.tier() != ir::ExecTier::Bytecode)
        return "";
    const ir::bc::BcFunction *compiled = exec.bytecode().find(fn);
    if (compiled == nullptr || !compiled->compiled)
        return "@" + fn + " does not compile to bytecode" +
               (compiled ? ": " + compiled->fallbackReason : "");
    for (const ir::bc::RegClass param : compiled->paramClasses)
        if (param == ir::bc::RegClass::Float)
            return "@" + fn +
                   " takes a float on the bytecode tier, which served "
                   "runs call with integers";
    return "";
}

/**
 * RAII record/replay scope of one run. A plan that records choices
 * or injects faults runs under a *private* ReplaySession — its own
 * RecordLog and fault plan — so concurrent plans on other workers
 * never observe each other's mode flips; the captured log is
 * harvested into the PlanResult on destruction. Any other plan runs
 * under the caller's session, which lets a caller replay a served log
 * by putting that session into Replay mode around runPlan (RunnerTest
 * pins this).
 */
class RecordScope
{
  public:
    RecordScope(const ExecutionPlan &plan,
                replay::ReplaySession &caller, PlanResult &result,
                std::string &error)
        : _result(result),
          _session(plan.recordChoices || !plan.faults.empty() ? _own
                                                              : caller)
    {
        if (!plan.faults.empty()) {
            std::string fault_error;
            auto fault_plan =
                replay::FaultPlan::fromSpec(plan.faults, fault_error);
            if (!fault_plan) {
                error = "fault plan: " + fault_error;
                return;
            }
            _own.setFaultPlan(*fault_plan);
        }
        if (plan.recordChoices) {
            _own.startRecording(plan.rootSeed);
            _own.setMetadata("tenant", plan.tenant);
            _own.setMetadata("kind", jobKindName(plan.kind));
            _own.setMetadata("seed", std::to_string(plan.rootSeed));
            _recording = true;
        }
        _armed = true;
    }

    bool armed() const { return _armed; }

    /** The session the run reports to. */
    replay::ReplaySession &session() { return _session; }

    ~RecordScope()
    {
        if (_recording)
            _result.recordLog = _own.finishRecording().saveToString();
    }

  private:
    PlanResult &_result;
    replay::ReplaySession _own;
    replay::ReplaySession &_session;
    bool _recording = false;
    bool _armed = false;
};

} // namespace

/**
 * One compiled configuration, shared by every plan with the same
 * compatibility key. The frozen module is immutable and shared; the
 * ExecutableModules over it are not synchronized, so idle instances
 * sit in a pool and each dispatch leases one exclusively.
 */
struct PlanRunner::Compiled
{
    std::shared_ptr<const ir::Module> module;
    ir::ExecTier execTier = ir::ExecTier::Auto;
    std::uint64_t stepBudget = 0;
    std::string computeFn;
    std::string auxFn;

    std::mutex poolMutex;
    std::vector<std::shared_ptr<ir::ExecutableModule>> pool;
};

/** RAII exclusive lease of one ExecutableModule instance. */
class PlanRunner::ExecLease
{
  public:
    explicit ExecLease(std::shared_ptr<Compiled> entry)
        : _entry(std::move(entry))
    {
        {
            std::lock_guard<std::mutex> lock(_entry->poolMutex);
            if (!_entry->pool.empty()) {
                _exec = std::move(_entry->pool.back());
                _entry->pool.pop_back();
            }
        }
        if (!_exec) {
            // Pool dry: stand up another instance over the shared
            // frozen module (deterministic, so instances are
            // interchangeable).
            _exec = std::make_shared<ir::ExecutableModule>(
                *_entry->module, _entry->execTier);
            _exec->setStepBudget(_entry->stepBudget);
        }
    }

    ~ExecLease()
    {
        std::lock_guard<std::mutex> lock(_entry->poolMutex);
        _entry->pool.push_back(std::move(_exec));
    }

    ExecLease(const ExecLease &) = delete;
    ExecLease &operator=(const ExecLease &) = delete;

    ir::ExecutableModule &operator*() { return *_exec; }

  private:
    std::shared_ptr<Compiled> _entry;
    std::shared_ptr<ir::ExecutableModule> _exec;
};

std::shared_ptr<PlanRunner::Compiled>
PlanRunner::compiled(const QueuedPlan &queued, std::string &error)
{
    // The first thread to miss a key inserts an in-progress slot and
    // compiles outside the cache mutex; later arrivals for the same
    // key wait on that slot. So a key never compiles twice, and a
    // cold compile never stalls hits on other keys.
    std::string key = queued.plan->compatibilityBytes();
    std::promise<Outcome> promise;
    std::shared_future<Outcome> slot;
    std::size_t evicted = 0;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        if (const auto *resident = _cache.find(key)) {
            slot = *resident;
        } else {
            slot = promise.get_future().share();
            _cache.insert(std::move(key), slot, &evicted);
            owner = true;
        }
    }

    auto &metrics = obs::MetricsRegistry::global();
    if (owner) {
        metrics.counter("serving.compile_cache_misses").add();
        if (evicted > 0)
            metrics.counter("serving.compile_cache_evictions")
                .add(static_cast<std::int64_t>(evicted));
        // Waiters block on this slot, so it is always filled; a
        // failure is cached like a success (it is deterministic).
        Outcome outcome;
        try {
            outcome = compile(*queued.plan, queued.admitted.get());
        } catch (const std::exception &e) {
            outcome.error = e.what();
        }
        promise.set_value(std::move(outcome));
    } else {
        _cacheHits.fetch_add(1, std::memory_order_relaxed);
        metrics.counter("serving.compile_cache_hits").add();
    }
    const Outcome &outcome = slot.get();
    error = outcome.error;
    return outcome.compiled;
}

PlanRunner::Outcome
PlanRunner::compile(const ExecutionPlan &plan,
                    const AdmittedModule *admitted)
{
    // A plan that did not pass through a server's admission gets the
    // same module gates here, minus the lint.
    std::shared_ptr<const AdmittedModule> own;
    if (admitted == nullptr) {
        own = AdmissionController::admitModule(plan.moduleText,
                                               /*run_analysis=*/false);
        admitted = own.get();
    }
    Outcome outcome;
    if (!admitted->verdict.admitted()) {
        outcome.error = admitted->verdict.detail;
        return outcome;
    }
    const ir::Module &module = *admitted->module;

    backend::BackendConfig config;
    config.execTier = plan.execTier;
    // Admission already linted; skip the per-instantiation audit.
    config.auditRanges = false;
    config.tradeoffIndices = plan.tradeoffIndices;
    for (const auto &dep : module.stateDeps)
        if (!dep.auxFn.empty())
            config.auxiliaryDeps.insert(dep.name);

    backend::Executable executable =
        backend::instantiateExecutable(module, config);
    executable.exec->setStepBudget(plan.stepBudget);
    const ir::StateDepMeta &dep = executable.module->stateDeps.front();
    for (const std::string *fn : {&dep.computeFn, &dep.auxFn}) {
        if (fn->empty())
            continue;
        outcome.error = callingConventionProblem(*executable.exec, *fn);
        if (!outcome.error.empty())
            return outcome;
    }

    auto entry = std::make_shared<Compiled>();
    entry->module = executable.module;
    entry->execTier = plan.execTier;
    entry->stepBudget = plan.stepBudget;
    entry->pool.push_back(std::move(executable.exec));
    entry->computeFn = dep.computeFn;
    entry->auxFn = dep.auxFn.empty() ? dep.computeFn : dep.auxFn;
    outcome.compiled = std::move(entry);
    return outcome;
}

std::vector<PlanResult>
PlanRunner::runBatch(const std::vector<QueuedPlan> &batch,
                     replay::ReplaySession &session)
{
    std::vector<PlanResult> results(batch.size());
    if (batch.empty())
        return results;
    switch (batch.front().plan->kind) {
      case JobKind::IrSequential:
        break;
      case JobKind::IrSpeculative:
        results[0] = runSpeculative(batch.front(), session);
        return results;
      case JobKind::Benchmark:
        results[0] = runBenchmark(*batch.front().plan, session);
        return results;
    }

    // Fused sequential lanes: one compiled module (same compatibility
    // key by construction), per-lane seed/noise/state streams, one
    // callBatch dispatch per step. Retired lanes (shorter input
    // streams) drop out; scalar call() is the fallback when batching
    // does not apply to the function.
    std::string error;
    const auto entry = compiled(batch.front(), error);
    if (!entry) {
        for (auto &result : results)
            result.error = error;
        return results;
    }

    ExecLease lease(entry);
    ir::ExecutableModule &exec = *lease;
    const std::string &fn = entry->computeFn;

    const std::size_t lanes = batch.size();
    std::vector<std::vector<testing::In>> inputs(lanes);
    std::vector<std::uint64_t> noise_seeds(lanes);
    std::vector<long long> states(lanes);
    std::vector<std::vector<long long>> observed(lanes);
    int longest = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        const ExecutionPlan &plan = *batch[l].plan;
        inputs[l] = testing::deriveInputs(plan.rootSeed, plan.inputs);
        noise_seeds[l] =
            support::SeedSequence(plan.rootSeed).derive("noise");
        states[l] = plan.initialState;
        longest = std::max(longest, plan.inputs);
    }

    std::vector<ir::RtValue> in_col, state_col, stepped;
    std::vector<std::size_t> live;
    for (int step = 0; step < longest; ++step) {
        in_col.clear();
        state_col.clear();
        live.clear();
        for (std::size_t l = 0; l < lanes; ++l) {
            if (step >= batch[l].plan->inputs)
                continue;
            live.push_back(l);
            in_col.push_back(
                ir::RtValue::ofInt(inputs[l][std::size_t(step)].value));
            state_col.push_back(ir::RtValue::ofInt(states[l]));
        }
        if (live.empty())
            continue;
        stepped.assign(live.size(), ir::RtValue());
        const std::vector<const ir::RtValue *> columns = {
            in_col.data(), state_col.data()};
        if (!exec.callBatch(fn, live.size(), columns,
                            stepped.data())) {
            for (std::size_t i = 0; i < live.size(); ++i)
                stepped[i] = ir::RtValue::ofInt(
                    interpStep(exec, fn, in_col[i].i, state_col[i].i));
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            const std::size_t l = live[i];
            const ExecutionPlan &plan = *batch[l].plan;
            observed[l].push_back(states[l]);
            states[l] = wrapState(
                stepped[i].asInt() +
                noiseFor(noise_seeds[l], step, /*attempt=*/0,
                         plan.noisyPercent, plan.maxNoise));
        }
    }

    for (std::size_t l = 0; l < lanes; ++l) {
        auto all = observed[l];
        all.push_back(states[l]); // Final state closes the chain.
        results[l].ok = true;
        results[l].resultBlob = encodeStates(all);
        results[l].finalState = states[l];
        results[l].invocations = batch[l].plan->inputs;
        results[l].batchedLanes = static_cast<int>(lanes);
        // Sequential interpretation never consults the ReplaySession
        // (no engine choice points, fault specs inert), so a lane's
        // RecordLog is seed + metadata only and can be captured after
        // the fact — byte-identical whether the lane ran fused or
        // solo, which keeps fusion invisible in replay-fetch output.
        if (batch[l].plan->recordChoices) {
            PlanResult scratch;
            std::string record_error;
            {
                RecordScope scope(*batch[l].plan, session, scratch,
                                  record_error);
            } // ~RecordScope fills scratch.recordLog
            results[l].recordLog = std::move(scratch.recordLog);
        }
    }
    return results;
}

PlanResult
PlanRunner::runSpeculative(const QueuedPlan &queued,
                           replay::ReplaySession &session)
{
    const ExecutionPlan &plan = *queued.plan;
    PlanResult result;
    std::string error;
    const auto entry = compiled(queued, error);
    if (!entry) {
        result.error = error;
        return result;
    }
    RecordScope scope(plan, session, result, error);
    if (!scope.armed()) {
        result.error = error;
        return result;
    }

    // The differential oracle's engine harness, over the scenario the
    // plan describes.
    testing::Scenario scenario;
    scenario.seed = plan.rootSeed;
    scenario.inputs = plan.inputs;
    scenario.initialState = plan.initialState;
    scenario.noisyPercent = plan.noisyPercent;
    scenario.maxNoise = plan.maxNoise;
    scenario.config = plan.limits;
    const std::vector<testing::In> inputs =
        testing::deriveInputs(scenario.seed, scenario.inputs);
    ExecLease lease(entry);
    const testing::EngineRun run = testing::runEngine(
        *lease, entry->computeFn, entry->auxFn, scenario, inputs,
        std::max(16, plan.limits.sdThreads), scope.session());

    std::vector<long long> states;
    for (const testing::Out &output : run.outputs)
        states.push_back(output.observed);
    result.ok = true;
    result.resultBlob = encodeStates(states);
    result.finalState = states.empty() ? plan.initialState
                                       : states.back();
    result.invocations = run.stats.invocations;
    return result;
}

PlanResult
PlanRunner::runBenchmark(const ExecutionPlan &plan,
                         replay::ReplaySession &session)
{
    PlanResult result;
    auto bench = benchmarks::createBenchmark(plan.moduleRef);

    benchmarks::RunRequest request;
    request.mode = plan.benchMode == "original"
                       ? benchmarks::Mode::Original
                   : plan.benchMode == "seq"
                       ? benchmarks::Mode::SeqStats
                       : benchmarks::Mode::ParStats;
    request.threads = plan.benchThreads;
    request.workload =
        plan.benchWorkload == "bad"
            ? benchmarks::WorkloadKind::NonRepresentative
            : benchmarks::WorkloadKind::Representative;
    // One root seed drives every stream (docs/REPLAY.md §1), exactly
    // like `statscc run --seed=N`.
    const support::SeedSequence seeds(plan.rootSeed);
    request.workloadSeed = seeds.derive("workload");
    request.runSeed = seeds.derive("run");

    std::string error;
    RecordScope scope(plan, session, result, error);
    if (!scope.armed()) {
        result.error = error;
        return result;
    }
    request.session = &scope.session();
    if (plan.recordChoices) {
        request.session->setMetadata("benchmark", bench->name());
        request.session->setMetadata("mode", plan.benchMode);
        request.session->setMetadata(
            "threads", std::to_string(plan.benchThreads));
        request.session->setMetadata("workload", plan.benchWorkload);
    }

    const benchmarks::RunResult run = bench->run(request);
    result.ok = true;
    result.resultBlob = encodeSignature(run.signature);
    result.virtualSeconds = run.virtualSeconds;
    result.invocations = run.engineStats.invocations;
    result.finalState = run.engineStats.validations;
    return result;
}

PlanResult
PlanRunner::runPlan(const ExecutionPlan &plan,
                    replay::ReplaySession &session)
{
    // A non-owning handle: the plan outlives this call.
    std::vector<QueuedPlan> solo(1);
    solo[0].plan = std::shared_ptr<const ExecutionPlan>(
        std::shared_ptr<const ExecutionPlan>(), &plan);
    return std::move(runBatch(solo, session).front());
}

} // namespace stats::serving
