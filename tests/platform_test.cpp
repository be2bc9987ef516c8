/**
 * @file
 * Tests of the platform models: effective HT parallelism, the
 * Amdahl-plus-sync inner-parallel model, and the energy model.
 */

#include <gtest/gtest.h>

#include "platform/cost_model.hpp"
#include "platform/energy_model.hpp"

namespace {

using namespace stats;
using namespace stats::platform;

sim::MachineConfig
machine(bool ht)
{
    sim::MachineConfig config;
    config.sockets = 2;
    config.coresPerSocket = 14;
    config.hyperThreading = ht;
    return config;
}

TEST(EffectiveParallelism, PhysicalCoresCountFully)
{
    EXPECT_DOUBLE_EQ(effectiveParallelism(machine(false), 1), 1.0);
    EXPECT_DOUBLE_EQ(effectiveParallelism(machine(false), 14), 14.0);
    EXPECT_DOUBLE_EQ(effectiveParallelism(machine(false), 28), 28.0);
}

TEST(EffectiveParallelism, SiblingsAddMarginalThroughput)
{
    // 2 * 0.65 - 1 = 0.3 marginal per HT sibling (Intel's ~30%).
    const auto m = machine(true);
    EXPECT_DOUBLE_EQ(effectiveParallelism(m, 28), 28.0);
    EXPECT_NEAR(effectiveParallelism(m, 42), 28.0 + 14 * 0.3, 1e-12);
    EXPECT_NEAR(effectiveParallelism(m, 56), 28.0 + 28 * 0.3, 1e-12);
}

TEST(EffectiveParallelism, MemoryBoundCodeGainsMore)
{
    const auto m = machine(true);
    const double compute_bound = effectiveParallelism(m, 56, 0.0);
    const double memory_bound = effectiveParallelism(m, 56, 0.5);
    EXPECT_GT(memory_bound, compute_bound);
    // The marginal gain is capped at a full core.
    const double fully = effectiveParallelism(m, 56, 2.0);
    EXPECT_LE(fully, 56.0);
}

TEST(EffectiveParallelism, ClampsToMachineCapacity)
{
    EXPECT_DOUBLE_EQ(effectiveParallelism(machine(false), 100), 28.0);
    EXPECT_DOUBLE_EQ(effectiveParallelism(machine(false), 0), 1.0);
}

TEST(InnerParallelModel, AmdahlLimit)
{
    InnerParallelModel model{0.1, 0.0, 0.0};
    const double t1 = model.duration(1.0, 1);
    EXPECT_DOUBLE_EQ(t1, 1.0);
    // Infinite threads approach the serial fraction.
    EXPECT_NEAR(model.duration(1.0, 1000000), 0.1, 1e-5);
    // Speedup at 10 threads: 1 / (0.1 + 0.9/10) = 5.26x.
    EXPECT_NEAR(t1 / model.duration(1.0, 10), 1.0 / 0.19, 1e-9);
}

TEST(InnerParallelModel, SyncCostCreatesAPeak)
{
    InnerParallelModel model{0.02, 1e-3, 0.0};
    const double work = 0.05;
    double best = 1e300;
    int best_threads = 0;
    for (int t = 1; t <= 64; ++t) {
        const double d = model.duration(work, t);
        if (d < best) {
            best = d;
            best_threads = t;
        }
    }
    // With these constants the optimum is an interior thread count:
    // more threads eventually lose to synchronization.
    EXPECT_GT(best_threads, 2);
    EXPECT_LT(best_threads, 32);
    EXPECT_GT(model.duration(work, 64), best);
}

TEST(InnerParallelModel, EffectiveParameterSlowsParallelPartOnly)
{
    InnerParallelModel model{0.5, 0.0, 0.0};
    // Serial half unaffected by effective throughput.
    const double full = model.duration(1.0, 4, 4.0);
    const double shared = model.duration(1.0, 4, 2.0);
    EXPECT_NEAR(shared - full, 0.5 / 2.0 - 0.5 / 4.0, 1e-12);
}

TEST(InnerParallelModel, WorkCarriesMemBound)
{
    InnerParallelModel model{0.1, 0.0, 0.35};
    const exec::Work work = model.work(1.0, 2);
    EXPECT_DOUBLE_EQ(work.memBound, 0.35);
    EXPECT_DOUBLE_EQ(work.units, model.duration(1.0, 2));
}

TEST(InnerParallelModel, WorkOnSharesHyperThreadedCores)
{
    // 42 logical threads on 28 cores: the 14 HT siblings add their
    // memory-bound marginal throughput, not full cores.
    InnerParallelModel model{0.1, 1e-4, 0.35};
    const exec::Work work = model.workOn(machine(true), 1.0, 42);
    EXPECT_DOUBLE_EQ(work.memBound, 0.35);
    EXPECT_DOUBLE_EQ(
        work.units,
        model.duration(1.0, 42, effectiveParallelism(machine(true), 42,
                                                     0.35)));
    EXPECT_GT(work.units, model.duration(1.0, 42));
}

TEST(EnergyModel, IntegratesIdleAndActivePower)
{
    EnergyModel model;
    sim::ActivityStats activity;
    activity.makespan = 10.0;
    activity.busyCoreSeconds = 50.0;
    EXPECT_DOUBLE_EQ(model.energyJoules(activity),
                     model.platformIdleWatts * 10.0 +
                         model.coreActiveWatts * 50.0);
}

TEST(EnergyModel, RacingToIdleSavesEnergy)
{
    // Same total work, half the makespan: the idle-power term halves.
    EnergyModel model;
    sim::ActivityStats slow{10.0, 40.0, 0, 0};
    sim::ActivityStats fast{5.0, 40.0, 0, 0};
    EXPECT_LT(model.energyJoules(fast), model.energyJoules(slow));
}

TEST(CostModel, OpsToSeconds)
{
    EXPECT_DOUBLE_EQ(opsToSeconds(kOpsPerSecond), 1.0);
    EXPECT_DOUBLE_EQ(opsToSeconds(0.0), 0.0);
}

} // namespace
