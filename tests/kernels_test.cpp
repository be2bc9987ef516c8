/**
 * @file
 * Unit tests of the benchmark kernels themselves: the annealed
 * particle filter tracks, the SPH fluid obeys physical invariants,
 * the Monte-Carlo pricer converges, the online clusterer respects its
 * bounds, and the face tracker locks on — independent of the STATS
 * runtime.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "benchmarks/bodytrack/bodytrack.hpp"
#include "benchmarks/facedet/facedet.hpp"
#include "benchmarks/fluidanimate/fluidanimate.hpp"
#include "benchmarks/streamcluster/streamcluster.hpp"
#include "benchmarks/swaptions/swaptions.hpp"

namespace {

using namespace stats;
using namespace stats::benchmarks;

TEST(BodytrackKernel, FilterTracksTheBody)
{
    using namespace stats::benchmarks::bodytrack;
    const auto workload = makeWorkload(WorkloadKind::Representative, 3);
    const FilterParams params{5, 60, false};
    BodyModel model = makeInitialModel(workload, params);
    support::Xoshiro256 rng(17);

    for (std::size_t f = 0; f < workload.frames.size(); ++f)
        updateModel(model, workload.frames[f], params, rng);

    // The final estimate is near the final true positions (well
    // within the initial cloud's +-1.5 spread).
    const auto estimate = model.estimate();
    const auto &truth = workload.truth.back();
    double err = 0.0;
    for (int part = 0; part < kParts; ++part)
        err += (estimate[static_cast<std::size_t>(part)] -
                truth[static_cast<std::size_t>(part)])
                   .norm();
    EXPECT_LT(err / kParts, 0.4);
}

TEST(BodytrackKernel, MoreLayersTrackBetterOnAverage)
{
    using namespace stats::benchmarks::bodytrack;
    const auto workload = makeWorkload(WorkloadKind::Representative, 5);

    const auto mean_error = [&](int layers, std::uint64_t seed) {
        const FilterParams params{layers, 50, false};
        BodyModel model = makeInitialModel(workload, params);
        support::Xoshiro256 rng(seed);
        double total = 0.0;
        for (std::size_t f = 0; f < workload.frames.size(); ++f) {
            updateModel(model, workload.frames[f], params, rng);
            const auto estimate = model.estimate();
            for (int part = 0; part < kParts; ++part) {
                total += (estimate[static_cast<std::size_t>(part)] -
                          workload.truth[f][static_cast<std::size_t>(
                              part)])
                             .norm();
            }
        }
        return total;
    };

    double shallow = 0.0, deep = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        shallow += mean_error(1, seed);
        deep += mean_error(8, seed + 100);
    }
    EXPECT_LT(deep, shallow);
}

TEST(BodytrackKernel, DistanceIsAMetricOnEstimates)
{
    using namespace stats::benchmarks::bodytrack;
    const auto workload = makeWorkload(WorkloadKind::Representative, 1);
    const FilterParams params{3, 30, false};
    BodyModel a = makeInitialModel(workload, params);
    BodyModel b = a;
    EXPECT_DOUBLE_EQ(a.distance(b), 0.0);
    support::Xoshiro256 rng(5);
    updateModel(b, workload.frames[0], params, rng);
    EXPECT_GT(a.distance(b), 0.0);
    EXPECT_DOUBLE_EQ(a.distance(b), b.distance(a));
}

TEST(FluidKernel, ParticlesStayInTheBox)
{
    using namespace stats::benchmarks::fluidanimate;
    const auto workload = makeWorkload(WorkloadKind::Representative, 2);
    Fluid fluid = workload.initial;
    const SphParams params;
    support::Xoshiro256 rng(23);
    for (const auto &step : workload.steps)
        advanceFrame(fluid, step, params, rng);
    for (const auto &p : fluid.positions) {
        EXPECT_GE(p.x, 0.0);
        EXPECT_LE(p.x, 1.0);
        EXPECT_GE(p.y, 0.0);
        EXPECT_LE(p.y, 1.0);
        EXPECT_GE(p.z, 0.0);
        EXPECT_LE(p.z, 1.0);
    }
}

TEST(FluidKernel, GravityPullsTheFluidDown)
{
    using namespace stats::benchmarks::fluidanimate;
    const auto workload = makeWorkload(WorkloadKind::Representative, 2);
    Fluid fluid = workload.initial;
    double initial_height = 0.0;
    for (const auto &p : fluid.positions)
        initial_height += p.y;
    const SphParams params;
    support::Xoshiro256 rng(29);
    for (const auto &step : workload.steps)
        advanceFrame(fluid, step, params, rng);
    double final_height = 0.0;
    for (const auto &p : fluid.positions)
        final_height += p.y;
    EXPECT_LT(final_height, initial_height);
}

TEST(FluidKernel, TinyNoiseDivergesSlowlyButSurely)
{
    // The race-condition stand-in: two runs differ, but only a little
    // over this horizon — which is why fluidanimate's Figure 2
    // variability is orders of magnitude below the PRVG benchmarks'.
    using namespace stats::benchmarks::fluidanimate;
    const auto workload = makeWorkload(WorkloadKind::Representative, 2);
    Fluid a = workload.initial;
    Fluid b = workload.initial;
    const SphParams params;
    support::Xoshiro256 ra(1), rb(2);
    for (const auto &step : workload.steps) {
        advanceFrame(a, step, params, ra);
        advanceFrame(b, step, params, rb);
    }
    const double d = a.distance(b);
    EXPECT_GT(d, 0.0);
    EXPECT_LT(d, 1e-4);
}

TEST(SwaptionsKernel, PriceConvergesWithTrials)
{
    using namespace stats::benchmarks::swaptions;
    const auto workload = makeWorkload(WorkloadKind::Representative, 4);
    const auto &terms = workload.terms[0];
    const McParams params;

    // Two independent estimates with many trials agree much better
    // than two with few trials.
    const auto price = [&](int batches, std::uint64_t seed) {
        PriceState state;
        support::Xoshiro256 rng(seed);
        for (int b = 0; b < batches; ++b) {
            Batch batch{0, b, kTrialsPerBatch};
            simulateBatch(state, batch, terms, params, rng);
        }
        return state.sumPayoff / static_cast<double>(state.trials);
    };

    const double few_spread = std::abs(price(1, 1) - price(1, 2));
    double big_spread_total = 0.0, few_spread_total = 0.0;
    for (std::uint64_t s = 0; s < 4; ++s) {
        few_spread_total += std::abs(price(1, 10 + s) - price(1, 20 + s));
        big_spread_total += std::abs(price(64, 30 + s) - price(64, 40 + s));
    }
    (void)few_spread;
    EXPECT_LT(big_spread_total, few_spread_total);
}

TEST(SwaptionsKernel, AccumulatorResetsAcrossSwaptions)
{
    using namespace stats::benchmarks::swaptions;
    const auto workload = makeWorkload(WorkloadKind::Representative, 4);
    PriceState state;
    support::Xoshiro256 rng(7);
    simulateBatch(state, Batch{0, 0, 16}, workload.terms[0],
                  McParams{}, rng);
    EXPECT_EQ(state.swaption, 0);
    EXPECT_EQ(state.trials, 16);
    simulateBatch(state, Batch{1, 0, 16}, workload.terms[1],
                  McParams{}, rng);
    EXPECT_EQ(state.swaption, 1);
    EXPECT_EQ(state.trials, 16); // Fresh accumulator for swaption 1.
}

TEST(SwaptionsKernel, DiscountMatchesPerStepProduct)
{
    using namespace stats::benchmarks::swaptions;
    // The discount as the path's product of per-step factors, each
    // float-rounded under the floatDiscount tradeoff.
    const auto reference = [](PriceState &state, const Batch &batch,
                              const SwaptionTerms &terms,
                              const McParams &params,
                              support::Xoshiro256 &rng) {
        const double dt = terms.maturityYears / kPathSteps;
        const double sqrt_dt = std::sqrt(dt);
        for (int trial = 0; trial < batch.trials; ++trial) {
            double rate = terms.rate0;
            double discount = 1.0;
            for (int step = 0; step < kPathSteps; ++step) {
                const double shock = rng.gaussian();
                rate += terms.meanReversion * (terms.longTermRate - rate) *
                            dt +
                        terms.volatility * sqrt_dt * shock;
                if (params.floatRatePath)
                    rate = static_cast<float>(rate);
                discount *= std::exp(-std::max(rate, -0.5) * dt);
                if (params.floatDiscount)
                    discount = static_cast<float>(discount);
            }
            const double payoff =
                std::max(rate - terms.strike, 0.0) * discount * 100.0;
            state.sumPayoff += payoff;
            state.sumSquares += payoff * payoff;
            ++state.trials;
        }
    };

    const auto workload = makeWorkload(WorkloadKind::Representative, 4);
    for (const bool float_rate : {false, true}) {
        for (const bool float_discount : {false, true}) {
            const McParams params{float_rate, float_discount};
            for (int s = 0; s < kSwaptions; ++s) {
                const auto &terms =
                    workload.terms[static_cast<std::size_t>(s)];
                const Batch batch{s, 0, 4 * kTrialsPerBatch};
                PriceState got, want;
                want.swaption = s;
                support::Xoshiro256 rng_got(100 + s), rng_want(100 + s);
                const double ops =
                    simulateBatch(got, batch, terms, params, rng_got);
                reference(want, batch, terms, params, rng_want);
                EXPECT_EQ(ops, batch.trials * kPathSteps * 9.0);
                EXPECT_EQ(got.trials, want.trials);
                ASSERT_GT(want.sumPayoff, 0.0);
                if (float_discount) {
                    EXPECT_EQ(got.sumPayoff, want.sumPayoff);
                    EXPECT_EQ(got.sumSquares, want.sumSquares);
                } else {
                    EXPECT_NEAR(got.sumPayoff / want.sumPayoff, 1.0, 1e-12);
                    EXPECT_NEAR(got.sumSquares / want.sumSquares, 1.0,
                                1e-12);
                }
            }
        }
    }
}

TEST(StreamclusterKernel, RespectsClusterBounds)
{
    using namespace stats::benchmarks::streamcluster;
    const auto workload = makeWorkload(WorkloadKind::Representative, 6);
    ClusterParams params;
    params.maxClusters = 10;
    params.minClusters = 3;
    Solution solution;
    support::Xoshiro256 rng(31);
    for (const auto &batch : workload.batches) {
        processBatch(solution, batch, params, rng);
        EXPECT_LE(solution.centroids.size(), 10u);
    }
    EXPECT_GE(solution.centroids.size(), 3u);
}

TEST(StreamclusterKernel, SolutionCoversTheData)
{
    using namespace stats::benchmarks::streamcluster;
    const auto workload = makeWorkload(WorkloadKind::Representative, 6);
    ClusterParams params;
    Solution solution;
    support::Xoshiro256 rng(37);
    for (const auto &batch : workload.batches)
        processBatch(solution, batch, params, rng);

    // Every point's nearest centroid is within a few noise sigmas
    // (the mixture's components are separated by ~10).
    for (const auto &point : workload.allPoints)
        EXPECT_LT(std::sqrt(solution.nearestDistance2(point)), 5.0);
}

TEST(StreamclusterKernel, AssignAllLabelsEveryPoint)
{
    using namespace stats::benchmarks::streamcluster;
    const auto workload = makeWorkload(WorkloadKind::Representative, 6);
    ClusterParams params;
    Solution solution;
    support::Xoshiro256 rng(41);
    for (const auto &batch : workload.batches)
        processBatch(solution, batch, params, rng);
    const auto labels = assignAll(workload.allPoints, solution);
    ASSERT_EQ(labels.size(), workload.allPoints.size());
    for (int label : labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label,
                  static_cast<int>(solution.centroids.size()));
    }
}

TEST(FacedetKernel, TrackerLocksOntoTheFace)
{
    using namespace stats::benchmarks::facedet;
    const auto workload = makeWorkload(WorkloadKind::Representative, 8);
    const FilterParams params{60, 4, 6.0, false};
    FaceModel model = makeInitialModel(workload, params);
    support::Xoshiro256 rng(43);
    for (const auto &frame : workload.frames)
        updateModel(model, frame, params, rng);
    const double err =
        model.estimate().cornerDistance(workload.truth.back());
    EXPECT_LT(err, 15.0); // Pixels; initial cloud spread is +-200.
}

TEST(FacedetKernel, CornersAreConsistent)
{
    using namespace stats::benchmarks::facedet;
    FaceBox box;
    box.center = {100.0, 50.0};
    box.width = 40.0;
    box.height = 60.0;
    const auto corners = box.corners();
    EXPECT_DOUBLE_EQ(corners[0].x, 80.0);
    EXPECT_DOUBLE_EQ(corners[0].y, 20.0);
    EXPECT_DOUBLE_EQ(corners[2].x, 120.0);
    EXPECT_DOUBLE_EQ(corners[2].y, 80.0);
    EXPECT_DOUBLE_EQ(box.cornerDistance(box), 0.0);
}

} // namespace
