/**
 * @file
 * Unit tests of the benchmark kernels themselves: the annealed
 * particle filter tracks, the SPH fluid obeys physical invariants,
 * the Monte-Carlo pricer converges, the online clusterer respects its
 * bounds, and the face tracker locks on — independent of the STATS
 * runtime.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

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

/**
 * The two-pass frame advanceFrame replaced, kept verbatim as the
 * reference: it computes every pair's distance once for density and
 * again for forces. The one-pass kernel must reproduce it bit for bit.
 */
namespace two_pass {

using namespace stats::benchmarks::fluidanimate;

constexpr double kSmoothing = 0.14;
constexpr double kRestDensity = 22.0;
constexpr double kStiffness = 30.0;
constexpr double kViscosity = 3.5;
constexpr double kGravity = -9.8;
constexpr double kRaceNoise = 1.0e-7;

double
sqrtVariant(double x, int variant)
{
    switch (variant) {
      case 1: {
        if (x <= 0.0)
            return 0.0;
        double guess = x > 1.0 ? x * 0.5 : 1.0;
        guess = 0.5 * (guess + x / guess);
        guess = 0.5 * (guess + x / guess);
        return guess;
      }
      case 2: {
        if (x <= 0.0)
            return 0.0;
        static const double table[] = {0.0,  0.5,  0.707, 0.866,
                                       1.0,  1.118, 1.224, 1.323,
                                       1.414, 1.5,  1.581, 1.658,
                                       1.732, 1.803, 1.871, 1.936, 2.0};
        const double scaled = std::min(x, 3.999) * 4.0;
        const int idx = static_cast<int>(scaled);
        const double frac = scaled - idx;
        return table[idx] * (1.0 - frac) + table[idx + 1] * frac;
      }
      default:
        return std::sqrt(x);
    }
}

double
advanceFrame(Fluid &fluid, const TimeStep &step, const SphParams &params,
             support::Xoshiro256 &rng)
{
    const std::size_t n = fluid.positions.size();
    const double h = kSmoothing;
    const double h2 = h * h;
    double ops = 0.0;

    std::vector<double> density(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            const double r2 = (fluid.positions[i] - fluid.positions[j])
                                  .norm2();
            if (r2 < h2) {
                const double w = (h2 - r2) * (h2 - r2) * (h2 - r2);
                density[i] += w;
                if (j != i)
                    density[j] += w;
                ops += 14.0;
            }
        }
    }
    const double kernel_norm = 315.0 / (64.0 * M_PI * std::pow(h, 9.0));
    for (std::size_t i = 0; i < n; ++i) {
        density[i] *= kernel_norm;
        if (params.floatDensity)
            density[i] = static_cast<float>(density[i]);
    }

    std::vector<Vec3> force(n, Vec3{0.0, 0.0, 0.0});
    for (std::size_t i = 0; i < n; ++i) {
        double pi = kStiffness * (density[i] - kRestDensity);
        if (params.floatPressure)
            pi = static_cast<float>(pi);
        for (std::size_t j = i + 1; j < n; ++j) {
            const Vec3 delta = fluid.positions[i] - fluid.positions[j];
            const double r2 = delta.norm2();
            if (r2 >= h2 || r2 <= 0.0)
                continue;
            const double r = sqrtVariant(r2, params.sqrtVariant);
            double pj = kStiffness * (density[j] - kRestDensity);
            const double shared =
                (pi + pj) * 0.5 * (h - r) * (h - r) / std::max(r, 1e-9);
            Vec3 f = delta * shared;
            double visc = kViscosity * (h - r);
            if (params.floatViscosity)
                visc = static_cast<float>(visc);
            f += (fluid.velocities[j] - fluid.velocities[i]) * visc;
            force[i] += f;
            force[j] += f * -1.0;
            ops += 30.0;
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const double rho = std::max(density[i], 1.0);
        Vec3 accel = force[i] * (1.0 / rho);
        accel.y += kGravity;
        accel += Vec3{rng.gaussian(0.0, kRaceNoise),
                      rng.gaussian(0.0, kRaceNoise),
                      rng.gaussian(0.0, kRaceNoise)};
        fluid.velocities[i] += accel * step.dt;
        fluid.positions[i] += fluid.velocities[i] * step.dt;

        auto clamp_axis = [](double &pos, double &vel) {
            if (pos < 0.0) {
                pos = 0.0;
                vel = -vel * 0.4;
            } else if (pos > 1.0) {
                pos = 1.0;
                vel = -vel * 0.4;
            }
        };
        clamp_axis(fluid.positions[i].x, fluid.velocities[i].x);
        clamp_axis(fluid.positions[i].y, fluid.velocities[i].y);
        clamp_axis(fluid.positions[i].z, fluid.velocities[i].z);
        ops += 20.0;
    }

    if (params.sqrtVariant == 1)
        ops *= 0.93;
    else if (params.sqrtVariant == 2)
        ops *= 0.85;
    return ops;
}

} // namespace two_pass

/** Byte-for-byte equality of two fluids' positions and velocities. */
bool
sameBits(const fluidanimate::Fluid &a, const fluidanimate::Fluid &b)
{
    const auto same = [](const std::vector<Vec3> &u,
                         const std::vector<Vec3> &v) {
        return u.size() == v.size() &&
               std::memcmp(u.data(), v.data(), u.size() * sizeof(Vec3)) ==
                   0;
    };
    return same(a.positions, b.positions) &&
           same(a.velocities, b.velocities);
}

TEST(FluidKernel, MatchesTwoPassReference)
{
    using namespace stats::benchmarks::fluidanimate;
    std::vector<SphParams> variants(6);
    variants[1].sqrtVariant = 1;
    variants[2].sqrtVariant = 2;
    variants[3].floatDensity = true;
    variants[4].floatPressure = true;
    variants[5].floatViscosity = true;

    for (std::size_t v = 0; v < variants.size(); ++v) {
        for (const std::uint64_t seed : {1u, 2u}) {
            SCOPED_TRACE(testing::Message()
                         << "variant " << v << ", workload seed " << seed);
            const auto workload =
                makeWorkload(WorkloadKind::Representative, seed);
            ASSERT_EQ(workload.steps.size(), 32u);
            Fluid fast = workload.initial;
            Fluid reference = workload.initial;
            support::Xoshiro256 fast_rng(41), reference_rng(41);
            for (const auto &step : workload.steps) {
                const double ops =
                    advanceFrame(fast, step, variants[v], fast_rng);
                const double reference_ops = two_pass::advanceFrame(
                    reference, step, variants[v], reference_rng);
                ASSERT_EQ(ops, reference_ops) << "frame " << step.id;
                ASSERT_TRUE(sameBits(fast, reference))
                    << "frame " << step.id;
            }
        }
    }
}

TEST(FluidKernel, ConcurrentFramesMatchSerial)
{
    // advanceFrame keeps its buffers per thread. Four threads run
    // fluids of different sizes at once; each must end exactly where
    // the same run ends when the runs go one after another.
    using namespace stats::benchmarks::fluidanimate;
    constexpr int kThreads = 4;
    const auto run = [](int t) {
        const auto workload = makeWorkload(
            WorkloadKind::Representative, static_cast<std::uint64_t>(t + 1));
        Fluid fluid = workload.initial;
        const std::size_t n =
            static_cast<std::size_t>(kParticles - 16 * t);
        fluid.positions.resize(n);
        fluid.velocities.resize(n);
        SphParams params;
        params.sqrtVariant = t % 3;
        support::Xoshiro256 rng(100 + static_cast<std::uint64_t>(t));
        double ops = 0.0;
        for (const auto &step : workload.steps)
            ops += advanceFrame(fluid, step, params, rng);
        return std::make_pair(fluid, ops);
    };

    std::vector<std::pair<Fluid, double>> serial;
    for (int t = 0; t < kThreads; ++t)
        serial.push_back(run(t));

    std::vector<std::pair<Fluid, double>> concurrent(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            concurrent[static_cast<std::size_t>(t)] = run(t);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        const auto &a = serial[static_cast<std::size_t>(t)];
        const auto &b = concurrent[static_cast<std::size_t>(t)];
        EXPECT_EQ(a.second, b.second) << "thread " << t;
        EXPECT_TRUE(sameBits(a.first, b.first)) << "thread " << t;
    }
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

namespace per_trial {

using namespace stats::benchmarks::swaptions;

/**
 * simulateBatch as it stood before the lane-parallel batch: one
 * trial's whole path after another, drawing each shock as it goes.
 */
double
simulateBatch(PriceState &state, const Batch &batch,
              const SwaptionTerms &terms, const McParams &params,
              support::Xoshiro256 &rng)
{
    if (state.swaption != batch.swaption) {
        // A new swaption's simulation begins: fresh accumulator.
        state = PriceState{};
        state.swaption = batch.swaption;
    }

    const double dt = terms.maturityYears / kPathSteps;
    const double sqrt_dt = std::sqrt(dt);
    for (int trial = 0; trial < batch.trials; ++trial) {
        // Mean-reverting short-rate path (Vasicek dynamics).
        double rate = terms.rate0;
        double discount = 1.0;
        // The double discount is one exp of the summed floored rates;
        // the float tradeoff keeps its per-step rounded product.
        double rate_sum = 0.0;
        for (int step = 0; step < kPathSteps; ++step) {
            const double shock = rng.gaussian();
            rate += terms.meanReversion * (terms.longTermRate - rate) * dt +
                    terms.volatility * sqrt_dt * shock;
            if (params.floatRatePath)
                rate = static_cast<float>(rate);
            if (params.floatDiscount)
                discount = static_cast<float>(
                    discount * std::exp(-std::max(rate, -0.5) * dt));
            else
                rate_sum += std::max(rate, -0.5);
        }
        if (!params.floatDiscount)
            discount = std::exp(-dt * rate_sum);
        const double payoff =
            std::max(rate - terms.strike, 0.0) * discount * 100.0;
        state.sumPayoff += payoff;
        state.sumSquares += payoff * payoff;
        ++state.trials;
    }

    return static_cast<double>(batch.trials) * kPathSteps * 9.0;
}

} // namespace per_trial

/** Byte-for-byte equality of two accumulators. */
::testing::AssertionResult
sameBits(const swaptions::PriceState &a, const swaptions::PriceState &b)
{
    if (a.swaption != b.swaption || a.trials != b.trials)
        return ::testing::AssertionFailure()
               << "swaption/trials " << a.swaption << "/" << a.trials
               << " vs " << b.swaption << "/" << b.trials;
    if (std::memcmp(&a.sumPayoff, &b.sumPayoff, sizeof(double)) != 0 ||
        std::memcmp(&a.sumSquares, &b.sumSquares, sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "sums " << a.sumPayoff << ", " << a.sumSquares << " vs "
               << b.sumPayoff << ", " << b.sumSquares;
    return ::testing::AssertionSuccess();
}

TEST(SwaptionsKernel, MatchesPerTrialReference)
{
    // Every swaption of both workload kinds under every tradeoff pair,
    // two batches each (the second adds to nonzero sums). Odd trial
    // counts leave a partial block of lanes.
    using namespace stats::benchmarks::swaptions;
    for (const auto kind :
         {WorkloadKind::Representative, WorkloadKind::NonRepresentative}) {
        const auto workload = makeWorkload(kind, 3);
        for (const bool float_rate : {false, true}) {
            for (const bool float_discount : {false, true}) {
                const McParams params{float_rate, float_discount};
                for (const int trials : {1, 7, 48, 480}) {
                    SCOPED_TRACE(testing::Message()
                                 << "kind " << static_cast<int>(kind)
                                 << ", float rate " << float_rate
                                 << ", float discount " << float_discount
                                 << ", trials " << trials);
                    support::Xoshiro256 rng(11), reference_rng(11);
                    PriceState state, reference;
                    for (int s = 0; s < kSwaptions; ++s) {
                        const auto &terms =
                            workload.terms[static_cast<std::size_t>(s)];
                        for (int b = 0; b < 2; ++b) {
                            const Batch batch{s, b, trials};
                            const double ops = simulateBatch(
                                state, batch, terms, params, rng);
                            const double reference_ops =
                                per_trial::simulateBatch(reference, batch,
                                                         terms, params,
                                                         reference_rng);
                            ASSERT_EQ(ops, reference_ops) << "swaption " << s;
                            ASSERT_TRUE(sameBits(state, reference))
                                << "swaption " << s << ", batch " << b;
                        }
                    }
                    EXPECT_EQ(rng(), reference_rng());
                }
            }
        }
    }
}

TEST(SwaptionsKernel, ConcurrentBatchesMatchSerial)
{
    // Four threads price different batch sizes under different
    // tradeoffs at once; each must end exactly where the same run
    // ends when the runs go one after another.
    using namespace stats::benchmarks::swaptions;
    constexpr int kThreads = 4;
    const auto run = [](int t) {
        const auto workload =
            makeWorkload(WorkloadKind::Representative,
                         static_cast<std::uint64_t>(t + 1));
        const int trials = 480 - 133 * t;
        const McParams params{t % 2 == 1, t >= 2};
        support::Xoshiro256 rng(200 + static_cast<std::uint64_t>(t));
        std::vector<PriceState> states(kSwaptions);
        for (int s = 0; s < kSwaptions; ++s) {
            for (int b = 0; b < 4; ++b) {
                simulateBatch(states[static_cast<std::size_t>(s)],
                              Batch{s, b, trials},
                              workload.terms[static_cast<std::size_t>(s)],
                              params, rng);
            }
        }
        return states;
    };

    std::vector<std::vector<PriceState>> serial;
    for (int t = 0; t < kThreads; ++t)
        serial.push_back(run(t));

    std::vector<std::vector<PriceState>> concurrent(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            concurrent[static_cast<std::size_t>(t)] = run(t);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        for (int s = 0; s < kSwaptions; ++s) {
            EXPECT_TRUE(sameBits(
                serial[static_cast<std::size_t>(t)]
                      [static_cast<std::size_t>(s)],
                concurrent[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(s)]))
                << "thread " << t << ", swaption " << s;
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
