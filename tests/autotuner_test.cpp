/**
 * @file
 * Tests of the autotuner: techniques, the AUC bandit, convergence on
 * synthetic objectives, caching, and exhaustion of small spaces.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "autotuner/bandit.hpp"
#include "autotuner/technique.hpp"
#include "autotuner/tuner.hpp"

namespace {

using namespace stats;
using namespace stats::autotuner;

tradeoff::StateSpace
bowlSpace(std::size_t dims, std::int64_t cardinality)
{
    tradeoff::StateSpace space;
    for (std::size_t d = 0; d < dims; ++d) {
        std::string name = "d";
        name += std::to_string(d);
        space.add(name, cardinality, 0);
    }
    return space;
}

/** Quadratic bowl with minimum at index `target` in every dimension. */
Autotuner::Objective
bowl(std::int64_t target)
{
    return [target](const tradeoff::Configuration &config) {
        double total = 0.0;
        for (const auto v : config) {
            const double d = static_cast<double>(v - target);
            total += d * d;
        }
        return total;
    };
}

TEST(Techniques, ProposalsAreAlwaysValid)
{
    const auto space = bowlSpace(6, 9);
    support::Xoshiro256 rng(3);
    std::vector<EvalRecord> history;
    EvalRecord best{space.defaultConfiguration(), 1.0};

    for (auto &technique : defaultTechniques()) {
        TuningContext context(space, rng, history, &best);
        for (int i = 0; i < 50; ++i) {
            const auto config = technique->propose(context);
            EXPECT_TRUE(space.valid(config)) << technique->name();
            technique->feedback(config, 1.0, false);
        }
    }
}

TEST(Techniques, GreedyMutationStaysNearBest)
{
    const auto space = bowlSpace(8, 10);
    support::Xoshiro256 rng(5);
    std::vector<EvalRecord> history;
    EvalRecord best{space.defaultConfiguration(), 1.0};
    GreedyMutation technique;
    TuningContext context(space, rng, history, &best);
    const auto config = technique.propose(context);
    std::size_t changed = 0;
    for (std::size_t d = 0; d < config.size(); ++d)
        changed += config[d] != best.config[d];
    EXPECT_LE(changed, 2u);
}

TEST(Techniques, PatternSearchStepsOneDimension)
{
    const auto space = bowlSpace(4, 10);
    support::Xoshiro256 rng(5);
    std::vector<EvalRecord> history;
    tradeoff::Configuration center{5, 5, 5, 5};
    EvalRecord best{center, 1.0};
    PatternSearch technique;
    TuningContext context(space, rng, history, &best);
    for (int i = 0; i < 8; ++i) {
        const auto config = technique.propose(context);
        int total_delta = 0;
        for (std::size_t d = 0; d < config.size(); ++d)
            total_delta += std::abs(static_cast<int>(config[d] - 5));
        EXPECT_EQ(total_delta, 1);
    }
}

TEST(Bandit, PlaysEveryArmOnce)
{
    AucBandit bandit(4);
    std::set<std::size_t> played;
    for (int i = 0; i < 4; ++i) {
        const auto arm = bandit.select();
        played.insert(arm);
        bandit.reward(arm, false);
    }
    EXPECT_EQ(played.size(), 4u);
}

TEST(Bandit, PrefersSuccessfulArm)
{
    AucBandit bandit(2, 20, /* low exploration */ 0.01);
    for (int i = 0; i < 30; ++i) {
        const auto arm = bandit.select();
        bandit.reward(arm, arm == 1);
    }
    int wins = 0;
    for (int i = 0; i < 20; ++i) {
        const auto arm = bandit.select();
        wins += arm == 1;
        bandit.reward(arm, arm == 1);
    }
    EXPECT_GT(wins, 15);
}

TEST(Bandit, CreditWeightsRecentOutcomes)
{
    AucBandit bandit(1, 10, 0.0);
    // Old success, then failures: credit decays.
    bandit.reward(0, true);
    const double fresh = bandit.credit(0);
    for (int i = 0; i < 5; ++i)
        bandit.reward(0, false);
    EXPECT_LT(bandit.credit(0), fresh);
}

TEST(Autotuner, ConvergesOnQuadraticBowl)
{
    const auto space = bowlSpace(6, 9); // 531441 points.
    Autotuner tuner(space, 17);
    const auto result = tuner.tune(bowl(4), 120);
    // Within 120 evaluations the ensemble should be essentially at
    // the optimum (objective 0 at all-4s).
    EXPECT_LE(result.bestObjective, 2.0);
    EXPECT_LE(result.evaluations, 120);
}

TEST(Autotuner, TraceIsMonotoneNonIncreasing)
{
    Autotuner tuner(bowlSpace(4, 8), 23);
    const auto result = tuner.tune(bowl(3), 60);
    for (std::size_t i = 1; i < result.trace.size(); ++i)
        EXPECT_LE(result.trace[i], result.trace[i - 1]);
}

TEST(Autotuner, CachesRepeatedConfigurations)
{
    int calls = 0;
    Autotuner tuner(bowlSpace(2, 3), 7); // Tiny space: 9 points.
    const auto objective = [&](const tradeoff::Configuration &config) {
        ++calls;
        return bowl(1)(config);
    };
    const auto result = tuner.tune(objective, 100);
    // Exhausting the 9-point space stops the search: the objective
    // can never be called more than 9 times.
    EXPECT_LE(calls, 9);
    EXPECT_EQ(result.bestObjective, 0.0);
}

TEST(Autotuner, EvaluatesDefaultConfigurationFirst)
{
    tradeoff::StateSpace space;
    space.add("a", 5, 2);
    space.add("b", 5, 3);
    Autotuner tuner(space, 1);
    tradeoff::Configuration first;
    const auto objective = [&](const tradeoff::Configuration &config) {
        if (first.empty())
            first = config;
        return 1.0;
    };
    tuner.tune(objective, 5);
    EXPECT_EQ(first, space.defaultConfiguration());
}

TEST(Autotuner, DifferentSeedsMayDiverge)
{
    // The paper: "The autotuner uses nondeterminism for better
    // exploration; different searches may find different best
    // configurations." The search paths must differ.
    const auto space = bowlSpace(5, 7);
    Autotuner a(space, 1), b(space, 2);
    const auto ra = a.tune(bowl(2), 30);
    const auto rb = b.tune(bowl(2), 30);
    EXPECT_NE(ra.trace, rb.trace);
}


TEST(Autotuner, SeedsAreEvaluatedBeforeTheSearch)
{
    tradeoff::StateSpace space;
    space.add("a", 9, 0);
    Autotuner tuner(space, 3);
    std::vector<tradeoff::Configuration> order;
    const auto objective = [&](const tradeoff::Configuration &config) {
        order.push_back(config);
        return 1.0;
    };
    tuner.tune(objective, 6, {{7}, {3}});
    ASSERT_GE(order.size(), 3u);
    EXPECT_EQ(order[0], space.defaultConfiguration());
    EXPECT_EQ(order[1], (tradeoff::Configuration{7}));
    EXPECT_EQ(order[2], (tradeoff::Configuration{3}));
}

TEST(Autotuner, InvalidSeedsAreIgnored)
{
    tradeoff::StateSpace space;
    space.add("a", 4, 0);
    Autotuner tuner(space, 5);
    const auto result = tuner.tune(bowl(1), 8, {{99}, {-1, 0}});
    EXPECT_LE(result.bestObjective, 9.0); // Search still ran fine.
}

} // namespace
