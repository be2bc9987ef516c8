/**
 * @file
 * Autotuner example: performance mode vs energy mode.
 *
 * STATS can optimize for run time or for whole-system energy (paper
 * Figure 15): the autotuner explores the same state space with a
 * different objective and typically lands on a configuration that
 * uses fewer cores when the marginal speedup is not worth the power.
 * The exploration results are kept in the state-space store, so
 * switching objectives reuses every configuration already profiled
 * (paper section 3.2).
 */

#include <cstdio>

#include "benchmarks/common/benchmark.hpp"
#include "profiler/profiler.hpp"

using namespace stats;
using namespace stats::benchmarks;

int
main()
{
    auto bench = createBenchmark("bodytrack");
    sim::MachineConfig machine;
    constexpr int kThreads = 28;
    constexpr int kBudget = 40;

    // One profiler (whose measurement store is the reusable
    // state-space store of paper section 3.2) feeding one search per
    // objective. The energy search is seeded with the time search's
    // best and re-profiles nothing the time search already measured.
    profiler::Profiler profiler(*bench, Mode::ParStats, kThreads,
                                machine);
    autotuner::Autotuner time_tuner(bench->stateSpace(kThreads), 11);
    const auto for_time = time_tuner.tune(
        profiler.objectiveFunction(profiler::Objective::Time), kBudget);
    const std::size_t profiled_after_time = profiler.store().size();

    autotuner::Autotuner energy_tuner(bench->stateSpace(kThreads), 13);
    const auto for_energy = energy_tuner.tune(
        profiler.objectiveFunction(profiler::Objective::Energy),
        kBudget, {for_time.best});

    const auto time_run = profiler.profile(for_time.best);
    const auto energy_run = profiler.profile(for_energy.best);

    std::printf("objective=time:   %.3fs, %.1f J\n", time_run.seconds,
                time_run.energyJoules);
    std::printf("objective=energy: %.3fs, %.1f J\n",
                energy_run.seconds, energy_run.energyJoules);
    std::printf("energy mode saves %.1f%% energy at a %.1f%% time "
                "cost\n",
                100.0 * (1.0 - energy_run.energyJoules /
                                   time_run.energyJoules),
                100.0 * (energy_run.seconds / time_run.seconds - 1.0));
    std::printf("benchmark runs: %zu for the time search, %zu more "
                "for the energy search (store hits are free)\n",
                profiled_after_time,
                profiler.store().size() - profiled_after_time);

    const auto space = bench->stateSpace(kThreads);
    std::printf("\ntime-optimal:   %s\n",
                space.describe(for_time.best).c_str());
    std::printf("energy-optimal: %s\n",
                space.describe(for_energy.best).c_str());
    return 0;
}
