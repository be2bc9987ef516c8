/**
 * @file
 * Glue that runs one SDI program description on the simulated
 * platform and collects the measurements the evaluation needs.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "benchmarks/common/benchmark.hpp"
#include "exec/sim_executor.hpp"
#include "platform/energy_model.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"

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
 * Execute a program with one engine configuration on the request's
 * simulated machine and threads, reporting to the request's replay
 * session. The real kernels run on the host; time and energy come
 * from the platform model.
 */
template <class Input, class State, class Output>
RunResult
runSdiProgram(const SdiProgram<Input, State, Output> &program,
              const sdi::SpecConfig &spec, const RunRequest &request)
{
    exec::SimExecutor executor(request.machine, request.threads);
    typename SdiProgram<Input, State, Output>::Engine engine(
        executor, program.inputs, program.initialState, program.compute,
        program.auxiliary, program.matcher, spec, *request.session);
    engine.start();
    engine.join();

    RunResult result;
    const auto &activity = executor.simulator().activity();
    result.virtualSeconds = activity.makespan;
    result.energyJoules = platform::EnergyModel{}.energyJoules(activity);
    result.engineStats = engine.stats();
    if (program.appendSignature) {
        for (const auto &output : engine.outputs())
            program.appendSignature(*output, result.signature);
    }
    return result;
}

} // namespace stats::benchmarks
