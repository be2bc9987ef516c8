/**
 * @file
 * Tests of the related-work baselines (paper section 4.4): their
 * structural applicability, Fast Track's always-aborting behaviour,
 * and the dependence-breaking policies.
 */

#include <gtest/gtest.h>

#include "baselines/baseline.hpp"

namespace {

using namespace stats;
using namespace stats::baselines;
using namespace stats::benchmarks;

TEST(Baselines, ApplicabilityTable)
{
    // Only swaptions' reduction-variable state is within reach of
    // ALTER / QuickStep / HELIX-UP.
    for (const auto kind :
         {BaselineKind::AlterLike, BaselineKind::QuickStepLike,
          BaselineKind::HelixUpLike}) {
        EXPECT_TRUE(applicable(kind, "swaptions"));
        EXPECT_FALSE(applicable(kind, "bodytrack"));
        EXPECT_FALSE(applicable(kind, "facedet"));
        EXPECT_FALSE(applicable(kind, "streamcluster"));
        EXPECT_FALSE(applicable(kind, "fluidanimate"));
    }
    for (const auto &name : allBenchmarkNames())
        EXPECT_TRUE(applicable(BaselineKind::FastTrack, name));
}

TEST(Baselines, FastTrackAlwaysAborts)
{
    // "Fast Track always aborted its speculations in our
    // experiments" (paper section 4.4).
    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        const auto result =
            runBaseline(BaselineKind::FastTrack, *bench,
                        /* parallel_original */ true, 14,
                        sim::MachineConfig{});
        EXPECT_TRUE(result.usedSpeculation) << name;
        EXPECT_EQ(result.engineStats.aborts, 1) << name;
        EXPECT_EQ(result.engineStats.validations, 0) << name;
    }
}

TEST(Baselines, AlterLikeSpeedsUpSwaptionsOnly)
{
    sim::MachineConfig machine;
    {
        auto bench = createBenchmark("swaptions");
        RunRequest seq;
        seq.threads = 1;
        seq.mode = Mode::Original;
        const double base = bench->run(seq).virtualSeconds;
        const auto alter = runBaseline(BaselineKind::AlterLike, *bench,
                                       false, 28, machine);
        EXPECT_GT(base / alter.virtualSeconds, 4.0);
        EXPECT_TRUE(alter.usedSpeculation);
    }
    {
        auto bench = createBenchmark("bodytrack");
        const auto alter = runBaseline(BaselineKind::AlterLike, *bench,
                                       false, 28, machine);
        // Inapplicable + Seq flavor: sequential performance.
        EXPECT_FALSE(alter.usedSpeculation);
        EXPECT_EQ(alter.engineStats.groups, 0);
    }
}

TEST(Baselines, BreakingDependencesSkipsAuxiliaryWork)
{
    for (const auto &name : allBenchmarkNames()) {
        auto bench = createBenchmark(name);
        RunRequest request;
        request.threads = 14;
        request.mode = Mode::SeqStats;
        request.policy = SpeculationPolicy::BreakNoCheck;
        const RunResult result = bench->run(request);
        // No auxiliary inputs consumed and every group committed.
        EXPECT_EQ(result.engineStats.aborts, 0) << name;
        EXPECT_GT(result.engineStats.validations, 0) << name;
        EXPECT_EQ(result.engineStats.mismatches, 0) << name;
    }
}

TEST(Baselines, InapplicableParFlavorEqualsOriginal)
{
    auto bench = createBenchmark("streamcluster");
    const auto baseline = runBaseline(BaselineKind::QuickStepLike,
                                      *bench, true, 14,
                                      sim::MachineConfig{});
    RunRequest original;
    original.threads = 14;
    original.mode = Mode::Original;
    const double original_time = bench->run(original).virtualSeconds;
    // Same mode, nondeterministic runs: times agree loosely.
    EXPECT_NEAR(baseline.virtualSeconds, original_time,
                0.4 * original_time);
}

} // namespace
