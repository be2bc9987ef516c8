#include "testing/oracle.hpp"

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/lint.hpp"
#include "backend/backend.hpp"
#include "exec/sim_executor.hpp"
#include "ir/bytecode_verifier.hpp"
#include "ir/exec_tier.hpp"
#include "ir/verifier.hpp"
#include "midend/midend.hpp"
#include "midend/substitute.hpp"
#include "replay/session.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"
#include "support/rng.hpp"
#include "support/seed_sequence.hpp"

namespace stats::testing {

namespace {

constexpr long long kStateModulus = 1LL << 20;

std::string
joinProblems(const std::vector<std::string> &problems)
{
    std::ostringstream out;
    for (std::size_t i = 0; i < problems.size() && i < 3; ++i)
        out << (i ? "; " : "") << problems[i];
    if (problems.size() > 3)
        out << "; ... (" << problems.size() << " total)";
    return out.str();
}

OracleResult
fail(std::string stage, std::string kind, std::string detail)
{
    OracleResult result;
    result.ok = false;
    result.stage = std::move(stage);
    result.failKind = std::move(kind);
    result.detail = std::move(detail);
    return result;
}

sdi::SpecEngine<In, long long, Out>::MatchFn
makeMatcher(MatcherKind kind)
{
    switch (kind) {
      case MatcherKind::AlwaysMatch:
        return sdi::alwaysMatch<long long>();
      case MatcherKind::ExactSingle:
        return sdi::exactSingleMatcher<long long>();
      case MatcherKind::ExactAny:
        break;
    }
    return [](const long long &spec,
              const std::vector<long long> &originals) -> int {
        for (std::size_t i = 0; i < originals.size(); ++i) {
            if (originals[i] == spec)
                return int(i);
        }
        return -1;
    };
}

/**
 * The oracle's core: is this committed history some legal
 * nondeterministic sequential execution? Exact check — every observed
 * transition must be one of the position's enumerable legal
 * transitions.
 */
std::string
checkChain(const std::vector<Out> &outputs,
           const std::vector<In> &inputs, ir::ExecutableModule &exec,
           const std::string &compute_fn, const Scenario &scenario)
{
    const std::uint64_t noise_seed =
        support::SeedSequence(scenario.seed).derive("noise");
    const int attempts = legalAttempts(scenario);
    if (outputs.empty())
        return "";
    if (outputs.front().observed != scenario.initialState) {
        return "input 0 observed state " +
               std::to_string(outputs.front().observed) +
               ", expected initial state " +
               std::to_string(scenario.initialState);
    }
    for (std::size_t p = 1; p < outputs.size(); ++p) {
        const long long prev = outputs[p - 1].observed;
        const long long base =
            interpStep(exec, compute_fn, inputs[p - 1].value, prev);
        bool legal = false;
        for (int a = 0; a < attempts && !legal; ++a) {
            legal = outputs[p].observed ==
                    wrapState(base + noiseFor(noise_seed, int(p) - 1, a,
                                              scenario.noisyPercent,
                                              scenario.maxNoise));
        }
        if (!legal) {
            return "transition " + std::to_string(p - 1) + " -> " +
                   std::to_string(p) + ": observed " +
                   std::to_string(outputs[p].observed) +
                   " is not reachable from " + std::to_string(prev) +
                   " under any of " + std::to_string(attempts) +
                   " legal attempts";
        }
    }
    return "";
}

/** Count/order checks that hold for every matcher. */
std::string
checkShape(const std::vector<Out> &outputs,
           const std::vector<In> &inputs)
{
    if (outputs.size() != inputs.size()) {
        return "engine produced " + std::to_string(outputs.size()) +
               " outputs for " + std::to_string(inputs.size()) +
               " inputs";
    }
    for (std::size_t p = 0; p < outputs.size(); ++p) {
        if (outputs[p].pos != int(p)) {
            return "output slot " + std::to_string(p) +
                   " holds input " + std::to_string(outputs[p].pos);
        }
    }
    return "";
}

std::string
checkStats(const sdi::EngineStats &stats, const Scenario &scenario,
           std::size_t inputs)
{
    if (stats.aborts > 1)
        return "more than one abort in a single run";
    if (stats.invocations < std::int64_t(inputs))
        return "fewer invocations than inputs";
    if (!scenario.config.useAuxiliary && stats.groups != 0)
        return "speculative groups formed without auxiliary code";
    if (stats.squashedGroups > stats.groups)
        return "more squashed groups than groups";
    return "";
}

} // namespace

int
legalAttempts(const Scenario &scenario)
{
    return std::max(0, scenario.config.maxReexecutions) + 2;
}

long long
wrapState(long long value)
{
    const long long wrapped = value % kStateModulus;
    return wrapped < 0 ? wrapped + kStateModulus : wrapped;
}

long long
noiseFor(std::uint64_t seed, int position, int attempt,
         int noisy_percent, int max_noise)
{
    if (noisy_percent <= 0 || max_noise <= 0)
        return 0;
    std::uint64_t state = seed ^
                          (std::uint64_t(position) * 0x9e3779b97f4a7c15ULL) ^
                          (std::uint64_t(attempt) * 0xbf58476d1ce4e5b9ULL);
    const std::uint64_t draw = support::splitmix64(state);
    if (draw % 100 >= std::uint64_t(noisy_percent))
        return 0;
    return (long long)((draw >> 8) % std::uint64_t(max_noise + 1));
}

std::vector<In>
deriveInputs(std::uint64_t seed, int count)
{
    support::Xoshiro256 rng(support::SeedSequence(seed).derive("inputs"));
    std::vector<In> inputs;
    for (int p = 0; p < count; ++p)
        inputs.push_back({p, rng.uniformInt(0, 999)});
    return inputs;
}

long long
interpStep(ir::ExecutableModule &exec, const std::string &function,
           long long input, long long state)
{
    const ir::RtValue result = exec.call(
        function,
        {ir::RtValue::ofInt(input), ir::RtValue::ofInt(state)});
    return result.asInt();
}

EngineRun
runEngine(ir::ExecutableModule &exec, const std::string &compute_fn,
          const std::string &aux_fn, const Scenario &scenario,
          const std::vector<In> &inputs, int sim_threads,
          replay::ReplaySession &session)
{
    // Per-position invocation counters give each (position, attempt)
    // pair its own noise draw. Plain engine runs touch them only from
    // serialized callbacks' tasks, but squashed-but-dispatched bodies
    // can race re-executions on real threads, hence atomics.
    auto counters = std::make_shared<std::vector<std::atomic<int>>>(
        inputs.size());

    const std::uint64_t noise_seed =
        support::SeedSequence(scenario.seed).derive("noise");
    const int noisy = scenario.noisyPercent;
    const int max_noise = scenario.maxNoise;

    using Engine = sdi::SpecEngine<In, long long, Out>;
    Engine::ComputeFn compute = [&exec, &compute_fn, counters,
                                 noise_seed, noisy, max_noise](
                                    const In &in, long long &state,
                                    const sdi::ComputeContext &) {
        Out out{in.pos, state};
        const int attempt = (*counters)[std::size_t(in.pos)].fetch_add(
            1, std::memory_order_relaxed);
        state = wrapState(
            interpStep(exec, compute_fn, in.value, state) +
            noiseFor(noise_seed, in.pos, attempt, noisy, max_noise));
        Engine::Invocation inv;
        inv.output = std::make_unique<Out>(out);
        inv.cost = exec::Work{1e-5, 0.2};
        return inv;
    };
    // Auxiliary code draws no noise: the paper's aux clone is a pure
    // approximation whose value only ever *proposes* a start state.
    Engine::ComputeFn auxiliary =
        [&exec, &aux_fn](const In &in, long long &state,
                         const sdi::ComputeContext &) {
            Out out{in.pos, state};
            state = wrapState(interpStep(exec, aux_fn, in.value, state));
            Engine::Invocation inv;
            inv.output = std::make_unique<Out>(out);
            inv.cost = exec::Work{5e-6, 0.2};
            return inv;
        };

    // Batched auxiliary: all windows advance in lockstep through
    // ExecutableModule::callBatch (scalar-call fallback when batching
    // does not apply to the function). Must be bit-identical to the
    // scalar auxiliary above — it draws no noise either — so engaging
    // it never changes the engine's validation verdicts.
    Engine::BatchAuxFn batch_aux =
        [&exec, &aux_fn, &inputs, &scenario](
            const std::vector<Engine::AuxBatchItem> &items) {
            std::vector<Engine::AuxBatchResult> results(items.size());
            std::vector<long long> states(
                items.size(), (long long)scenario.initialState);
            std::size_t longest = 0;
            for (const auto &item : items)
                longest = std::max(longest,
                                   item.windowEnd - item.windowBegin);
            std::vector<ir::RtValue> arg0, arg1, lane_results;
            std::vector<std::size_t> lanes;
            for (std::size_t step = 0; step < longest; ++step) {
                arg0.clear();
                arg1.clear();
                lanes.clear();
                for (std::size_t i = 0; i < items.size(); ++i) {
                    const std::size_t pos = items[i].windowBegin + step;
                    if (pos >= items[i].windowEnd)
                        continue; // Shorter window: lane retired.
                    lanes.push_back(i);
                    arg0.push_back(
                        ir::RtValue::ofInt(inputs[pos].value));
                    arg1.push_back(ir::RtValue::ofInt(states[i]));
                    results[i].workUnits += 5e-6;
                }
                if (lanes.empty())
                    continue;
                lane_results.assign(lanes.size(), ir::RtValue());
                const std::vector<const ir::RtValue *> columns = {
                    arg0.data(), arg1.data()};
                if (!exec.callBatch(aux_fn, lanes.size(), columns,
                                    lane_results.data())) {
                    for (std::size_t l = 0; l < lanes.size(); ++l)
                        lane_results[l] =
                            exec.call(aux_fn, {arg0[l], arg1[l]});
                }
                for (std::size_t l = 0; l < lanes.size(); ++l)
                    states[lanes[l]] =
                        wrapState(lane_results[l].asInt());
            }
            for (std::size_t i = 0; i < items.size(); ++i)
                results[i].state = states[i];
            return results;
        };

    sim::MachineConfig machine;
    machine.dispatchOverhead = 0.0;
    exec::SimExecutor executor(machine, sim_threads);
    Engine engine(executor, inputs,
                  (long long)scenario.initialState, compute, auxiliary,
                  makeMatcher(scenario.matcher), scenario.config,
                  session);
    engine.setBatchAuxiliary(batch_aux);
    engine.start();
    engine.join();

    EngineRun run;
    run.stats = engine.stats();
    for (const auto &output : engine.outputs())
        run.outputs.push_back(*output);
    return run;
}

OracleResult
runOracle(const FuzzCase &fuzz_case, const OracleOptions &options,
          replay::ReplaySession &session)
{
    const Scenario &scenario = fuzz_case.scenario;

    // ---- stage: verify (the only stage fed unvetted IR) ----
    const std::vector<std::string> problems =
        ir::verifyModule(fuzz_case.module);
    if (fuzz_case.expect == Expectation::Reject) {
        OracleResult result;
        if (fuzz_case.expectStage == "verify") {
            if (!problems.empty()) {
                result.rejected = true;
                result.stage = "verify";
                result.detail = joinProblems(problems);
                return result;
            }
            return fail("verify", "missed-rejection",
                        "verifier accepted a near-miss module");
        }
        // Analysis-stage near-miss: must be structurally clean, then
        // flagged by the analyzer on the midend IR.
        if (!problems.empty()) {
            return fail("verify", "missed-rejection",
                        "analysis near-miss died in the verifier: " +
                            joinProblems(problems));
        }
        ir::Module midend_ir = fuzz_case.module;
        midend::runMiddleEnd(midend_ir);
        const auto diagnostics = analysis::runAnalyses(midend_ir, {});
        if (analysis::hasErrors(diagnostics)) {
            result.rejected = true;
            result.stage = "analysis";
            result.detail = std::to_string(diagnostics.size()) +
                            " diagnostic(s)";
            return result;
        }
        return fail("analysis", "missed-rejection",
                    "analyzer accepted a near-miss module");
    }
    if (!problems.empty()) {
        return fail("verify", "generator-invalid",
                    joinProblems(problems));
    }
    if (fuzz_case.module.stateDeps.empty()) {
        return fail("verify", "generator-invalid",
                    "module declares no state dependence");
    }

    // ---- stage: midend ----
    ir::Module midend_ir = fuzz_case.module;
    midend::runMiddleEnd(midend_ir);
    if (const auto midend_problems = ir::verifyModule(midend_ir);
        !midend_problems.empty()) {
        return fail("midend", "midend-invalid",
                    joinProblems(midend_problems));
    }

    // ---- stage: analysis ----
    if (options.runAnalysis) {
        analysis::LintOptions lint;
        lint.bytecodeVerifier = ir::bc::verifyCompiledModule;
        const auto diagnostics = analysis::runAnalyses(midend_ir, lint);
        if (analysis::hasErrors(diagnostics)) {
            std::ostringstream detail;
            analysis::writeDiagnosticsText(detail, fuzz_case.name,
                                           diagnostics);
            return fail("analysis", "analysis-unclean", detail.str());
        }
    }

    // ---- stage: backend (random aux-tradeoff configuration) ----
    const support::SeedSequence sequence(scenario.seed);
    support::Xoshiro256 backend_rng(sequence.derive("backend"));
    backend::BackendConfig config;
    // Generated modules are range-sloppy by design; the analysis stage
    // above already linted, so skip the per-instantiation audit.
    config.auditRanges = false;
    for (const auto &dep : midend_ir.stateDeps)
        config.auxiliaryDeps.insert(dep.name);
    for (const auto &tradeoff : midend_ir.tradeoffs) {
        if (!tradeoff.auxClone || backend_rng.nextBelow(2) == 0)
            continue; // Half the time: keep the default index.
        const std::int64_t size = midend::sizeOf(midend_ir, tradeoff);
        config.tradeoffIndices[tradeoff.name] =
            std::int64_t(backend_rng.nextBelow(std::uint64_t(size)));
    }
    const ir::Module instantiated =
        backend::instantiate(midend_ir, config);
    if (const auto backend_problems = ir::verifyModule(instantiated);
        !backend_problems.empty()) {
        return fail("backend", "backend-invalid",
                    joinProblems(backend_problems));
    }

    const ir::StateDepMeta &dep = instantiated.stateDeps.front();
    const std::string compute_fn = dep.computeFn;
    const std::string aux_fn =
        dep.auxFn.empty() ? dep.computeFn : dep.auxFn;

    // One executable per oracle run: the bytecode tier compiles each
    // function once, and fallback calls share the wrapped AST walker.
    ir::ExecutableModule exec(instantiated, options.execTier);
    exec.setStepBudget(1'000'000);

    const std::vector<In> inputs =
        deriveInputs(scenario.seed, scenario.inputs);

    OracleResult result;
    result.stage = "sequential";

    // ---- sequential sampling: fingerprints + determinism check ----
    // The runs advance lane-parallel, one input at a time: run r is
    // lane r, its replay is lane runs+r, and straight-line compute
    // functions go through the VM's batched SoA mode. Each run still
    // draws its attempts from its own rng stream in input order, so
    // the sampled histories are the ones the run-at-a-time loop drew.
    const std::uint64_t noise_seed = sequence.derive("noise");
    const int attempts = legalAttempts(scenario);
    const int runs = std::max(1, scenario.sequentialRuns);
    const std::size_t lanes = std::size_t(runs) * 2;
    std::vector<support::Xoshiro256> run_rngs;
    for (int r = 0; r < runs; ++r)
        run_rngs.emplace_back(
            sequence.derive("sequential", std::uint64_t(r)));
    std::vector<long long> state(std::size_t(runs),
                                 (long long)scenario.initialState);
    std::vector<long long> replayed = state;
    std::vector<ir::RtValue> in_col(lanes), state_col(lanes),
        stepped(lanes);
    for (const In &in : inputs) {
        for (std::size_t l = 0; l < lanes; ++l) {
            in_col[l] = ir::RtValue::ofInt(in.value);
            state_col[l] = ir::RtValue::ofInt(
                l < std::size_t(runs) ? state[l]
                                      : replayed[l - std::size_t(runs)]);
        }
        const std::vector<const ir::RtValue *> columns{
            in_col.data(), state_col.data()};
        if (!exec.callBatch(compute_fn, lanes, columns,
                            stepped.data())) {
            for (std::size_t l = 0; l < lanes; ++l)
                stepped[l] = ir::RtValue::ofInt(interpStep(
                    exec, compute_fn, in.value, state_col[l].i));
        }
        for (int r = 0; r < runs; ++r) {
            const int attempt = int(
                run_rngs[std::size_t(r)].nextBelow(std::uint64_t(attempts)));
            const long long noise =
                noiseFor(noise_seed, in.pos, attempt,
                         scenario.noisyPercent, scenario.maxNoise);
            state[std::size_t(r)] =
                wrapState(stepped[std::size_t(r)].asInt() + noise);
            replayed[std::size_t(r)] = wrapState(
                stepped[std::size_t(runs + r)].asInt() + noise);
            if (state[std::size_t(r)] != replayed[std::size_t(r)]) {
                return fail("sequential", "sequential-self-check",
                            "re-interpreting input " +
                                std::to_string(in.pos) +
                                " of run " + std::to_string(r) +
                                " gave a different state");
            }
        }
    }
    std::set<long long> finals(state.begin(), state.end());
    result.sequentialFinals.assign(finals.begin(), finals.end());

    // ---- speculative run (clean) ----
    result.stage = "speculative";
    EngineRun clean = runEngine(exec, compute_fn, aux_fn, scenario,
                                inputs, options.simThreads, session);
    result.cleanStats = clean.stats;
    if (auto error = checkShape(clean.outputs, inputs); !error.empty())
        return fail("speculative", "output-order", error);
    if (scenario.matcher != MatcherKind::AlwaysMatch) {
        if (auto error = checkChain(clean.outputs, inputs, exec,
                                    compute_fn, scenario);
            !error.empty())
            return fail("speculative", "chain-violation", error);
    } else if (!clean.outputs.empty() &&
               clean.outputs.front().observed != scenario.initialState) {
        return fail("speculative", "chain-violation",
                    "always-match run did not start from the initial "
                    "state");
    }
    if (auto error = checkStats(clean.stats, scenario, inputs.size());
        !error.empty())
        return fail("speculative", "stats-inconsistent", error);

    // ---- speculative run under the fault storm ----
    if (options.faultRun && !scenario.faults.empty()) {
        std::string plan_error;
        const auto plan =
            replay::FaultPlan::fromSpec(scenario.faults, plan_error);
        if (!plan) {
            return fail("faulted", "fault-spec-invalid", plan_error);
        }
        result.stage = "faulted";
        result.faulted = true;
        session.setFaultPlan(*plan);
        EngineRun faulted =
            runEngine(exec, compute_fn, aux_fn, scenario, inputs,
                      options.simThreads, session);
        session.setFaultPlan(replay::FaultPlan{});
        result.faultStats = faulted.stats;
        if (auto error = checkShape(faulted.outputs, inputs);
            !error.empty())
            return fail("faulted", "output-order", error);
        if (scenario.matcher != MatcherKind::AlwaysMatch) {
            if (auto error =
                    checkChain(faulted.outputs, inputs, exec,
                               compute_fn, scenario);
                !error.empty())
                return fail("faulted", "chain-violation", error);
        }
        if (auto error =
                checkStats(faulted.stats, scenario, inputs.size());
            !error.empty())
            return fail("faulted", "stats-inconsistent", error);
    }

    result.stage = result.faulted ? "faulted" : "speculative";
    return result;
}

} // namespace stats::testing
