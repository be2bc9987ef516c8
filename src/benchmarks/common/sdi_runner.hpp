/**
 * @file
 * The one run path of the SDI benchmarks: a benchmark declares its
 * program (paper section 3.1: inputs, state, computeOutput, its
 * auxiliary clone and the state comparison); this glue binds it to a
 * request, runs it on the simulated platform and collects the
 * measurements the evaluation needs.
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "exec/sim_executor.hpp"
#include "platform/energy_model.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"
#include "support/rng.hpp"

namespace stats::benchmarks {

/**
 * A fully-bound state-dependence program: inputs, initial state, the
 * original and auxiliary computeOutput closures (each already bound
 * to its tradeoff values), the state comparison, and the output
 * flattening used for quality evaluation.
 */
template <class Input, class State, class Output>
struct SdiProgram
{
    using Engine = sdi::SpecEngine<Input, State, Output>;

    std::vector<Input> inputs;
    State initialState;
    typename Engine::ComputeFn compute;
    typename Engine::ComputeFn auxiliary;
    typename Engine::MatchFn matcher;
    std::function<void(const Output &, std::vector<double> &)>
        appendSignature;
};

/**
 * Rewire a program + engine configuration for a related-work
 * speculation policy (paper section 4.4). STATS' own policy leaves
 * everything as the benchmark built it.
 */
template <class Input, class State, class Output>
void
applyPolicy(SpeculationPolicy policy,
            SdiProgram<Input, State, Output> &program,
            sdi::SpecConfig &spec)
{
    switch (policy) {
      case SpeculationPolicy::StatsAux:
        return;
      case SpeculationPolicy::BreakNoCheck:
        // Dependence broken: stale initial state, no checks.
        spec.auxWindow = 0;
        spec.maxReexecutions = 0;
        program.matcher = sdi::alwaysMatch<State>();
        return;
      case SpeculationPolicy::StaleExactCheck:
        // Fast Track: single-state exact verification of a stale
        // state; with a nondeterministic producer this never matches.
        spec.auxWindow = 0;
        spec.maxReexecutions = 0;
        program.matcher = sdi::neverMatch<State>();
        return;
    }
}

/**
 * Run one request of an SDI benchmark.
 *
 * Resolves the request's configuration (empty: the default one),
 * binds the original code to the registry's defaults (paper
 * section 3.4: the middle-end freezes non-auxiliary tradeoffs) and
 * the auxiliary code to the configuration's cloned tradeoffs, builds
 * the program, applies the request's speculation policy and runs the
 * program on the request's simulated machine and threads, reporting
 * to the request's replay session. The real kernels run on the host;
 * time and energy come from the platform model. A nonzero
 * `request.runSeed` pins every PRVG from program construction to the
 * end of the engine run.
 *
 * `params_from(registry, assignment, auxiliary)` binds the
 * benchmark's kernel parameters. `build(workload, original,
 * auxiliary, machine)` returns its SdiProgram and may keep references
 * to `workload`, which outlives the run.
 */
template <class Workload, class ParamsFrom, class Build>
RunResult
runSdiBenchmark(const RunRequest &request,
                const tradeoff::Registry &registry,
                const Workload &workload, ParamsFrom params_from,
                Build build)
{
    const tradeoff::StateSpace space =
        stateSpaceFor(registry, request.threads);
    const tradeoff::Configuration config =
        request.config.empty() ? space.defaultConfiguration()
                               : request.config;
    const auto original =
        params_from(registry, registry.defaults(), false);
    const auto auxiliary = params_from(
        registry, assignmentFor(space, config, registry), true);

    std::optional<support::ScopedDeterministicSeeds> pinned;
    if (request.runSeed != 0)
        pinned.emplace(request.runSeed);

    auto program = build(workload, original, auxiliary, request.machine);
    sdi::SpecConfig spec =
        specConfigFor(space, config, request.mode, request.threads);
    applyPolicy(request.policy, program, spec);

    exec::SimExecutor executor(request.machine, request.threads);
    typename decltype(program)::Engine engine(
        executor, program.inputs, program.initialState, program.compute,
        program.auxiliary, program.matcher, spec, *request.session);
    engine.start();
    engine.join();

    RunResult result;
    const auto &activity = executor.simulator().activity();
    result.virtualSeconds = activity.makespan;
    result.energyJoules = platform::EnergyModel{}.energyJoules(activity);
    result.engineStats = engine.stats();
    for (const auto &output : engine.outputs())
        program.appendSignature(*output, result.signature);
    return result;
}

} // namespace stats::benchmarks
