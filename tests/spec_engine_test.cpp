/**
 * @file
 * Tests of the STATS speculation engine (paper section 3.1).
 *
 * A deterministic toy state dependence drives every path of the
 * execution model: speculative commits, mismatch + producer
 * re-execution with tail-output replacement, re-execution exhaustion
 * with squash-and-sequential-restart, the conventional path, and the
 * full-history pattern (fluidanimate-like) whose auxiliary code can
 * never match.
 *
 * Toy semantics: the state is the value of the *last* input processed
 * (short memory, so auxiliary code with window k >= 1 reproduces it),
 * plus optional per-(position, attempt) noise injected to emulate
 * nondeterminism. Each invocation's output records the prior state,
 * so any incorrect state chaining shows up in the outputs.
 */

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sim_executor.hpp"
#include "exec/thread_executor.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"

namespace {

using namespace stats;
using sdi::SpecConfig;

struct ToyState
{
    long long v = 0;
    bool operator==(const ToyState &other) const { return v == other.v; }
};

struct ToyOutput
{
    long long observedPriorState;
    int input;
};

using Engine = sdi::SpecEngine<int, ToyState, ToyOutput>;

/** Noise by (input position, attempt number); default 0. */
class NoiseModel
{
  public:
    void
    set(int input, int attempt, long long noise)
    {
        _noise[{input, attempt}] = noise;
    }

    /** Consume the next attempt's noise for this input. */
    long long
    next(int input)
    {
        const int attempt = _attempts[input]++;
        auto it = _noise.find({input, attempt});
        return it == _noise.end() ? 0 : it->second;
    }

  private:
    std::map<std::pair<int, int>, long long> _noise;
    std::map<int, int> _attempts;
};

/** Original compute: may be noisy. Output records the prior state. */
Engine::ComputeFn
makeCompute(std::shared_ptr<NoiseModel> noise)
{
    return [noise](const int &input, ToyState &state,
                   const sdi::ComputeContext &ctx) -> Engine::Invocation {
        auto out = std::make_unique<ToyOutput>();
        out->observedPriorState = state.v;
        out->input = input;
        const long long n =
            (!ctx.auxiliary && noise) ? noise->next(input) : 0;
        state.v = static_cast<long long>(input) * 10 + n;
        return {std::move(out), exec::Work{0.001, 0.0}};
    };
}

/** Auxiliary compute: noise-free clone (its own tradeoff settings). */
Engine::ComputeFn
makeAux()
{
    return makeCompute(nullptr);
}

/** Exact-equality matcher over the whole original set. */
Engine::MatchFn
exactAnyMatcher()
{
    return [](const ToyState &spec,
              const std::vector<ToyState> &originals) -> int {
        for (std::size_t i = 0; i < originals.size(); ++i) {
            if (originals[i] == spec)
                return static_cast<int>(i);
        }
        return -1;
    };
}

std::vector<int>
makeInputs(int n)
{
    std::vector<int> inputs;
    for (int i = 1; i <= n; ++i)
        inputs.push_back(i);
    return inputs;
}

/** Noise-free sequential reference. */
std::vector<ToyOutput>
reference(const std::vector<int> &inputs)
{
    std::vector<ToyOutput> out;
    ToyState state;
    for (int input : inputs) {
        out.push_back({state.v, input});
        state.v = static_cast<long long>(input) * 10;
    }
    return out;
}

void
expectOutputsEqual(const std::vector<std::unique_ptr<ToyOutput>> &got,
                   const std::vector<ToyOutput> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i]->observedPriorState, want[i].observedPriorState)
            << "at position " << i;
        EXPECT_EQ(got[i]->input, want[i].input) << "at position " << i;
    }
}

sim::MachineConfig
simMachine()
{
    sim::MachineConfig config;
    config.dispatchOverhead = 0.0;
    return config;
}

TEST(SpecEngine, SpeculativeRunMatchesSequentialReference)
{
    const auto inputs = makeInputs(20);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.sdThreads = 8;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();

    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().groups, 5);
    EXPECT_EQ(engine.stats().validations, 4);
    EXPECT_EQ(engine.stats().mismatches, 0);
    EXPECT_EQ(engine.stats().aborts, 0);
}

TEST(SpecEngine, SpeculationIsFasterThanSequentialInVirtualTime)
{
    const auto inputs = makeInputs(64);
    double sequential_time = 0.0;
    {
        exec::SimExecutor ex(simMachine(), 8);
        SpecConfig config;
        config.useAuxiliary = false;
        Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr),
                      makeAux(), exactAnyMatcher(), config);
        engine.start();
        engine.join();
        sequential_time = ex.now();
    }
    double speculative_time = 0.0;
    {
        exec::SimExecutor ex(simMachine(), 8);
        SpecConfig config;
        config.groupSize = 8;
        config.auxWindow = 1;
        config.sdThreads = 8;
        Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr),
                      makeAux(), exactAnyMatcher(), config);
        engine.start();
        engine.join();
        speculative_time = ex.now();
    }
    // 8 groups of 8 inputs, each group preceded by a 1-input auxiliary
    // warmup: near-8x parallelism on this toy.
    EXPECT_LT(speculative_time, sequential_time / 4.0);
}

TEST(SpecEngine, NeverMatchingSpeculationAbortsAndRecovers)
{
    const auto inputs = makeInputs(17);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.maxReexecutions = 0;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  sdi::neverMatch<ToyState>(), config);
    engine.start();
    engine.join();

    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().aborts, 1);
    EXPECT_EQ(engine.stats().validations, 0);
    EXPECT_GT(engine.stats().squashedGroups, 0);
    // Groups after the first are all reprocessed sequentially.
    EXPECT_EQ(engine.stats().sequentialInputs, 17 - 4);
}

TEST(SpecEngine, ReexecutionRecoversFromOneMismatch)
{
    const auto inputs = makeInputs(12);
    auto noise = std::make_shared<NoiseModel>();
    // The last input of group 0 (input 4) is noisy on its first
    // attempt only: the first final state mismatches the speculative
    // state, the re-execution's matches.
    noise->set(/* input */ 4, /* attempt */ 0, /* noise */ 7);

    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.rollbackDepth = 1;
    config.maxReexecutions = 2;
    Engine engine(ex, inputs, ToyState{}, makeCompute(noise), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();

    // The re-execution's tail outputs replace the first attempt's, so
    // the final output stream is the noise-free reference.
    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().mismatches, 1);
    EXPECT_EQ(engine.stats().reexecutions, 1);
    EXPECT_EQ(engine.stats().validations, 2);
    EXPECT_EQ(engine.stats().aborts, 0);
}

TEST(SpecEngine, PersistentMismatchExhaustsReexecutionsAndAborts)
{
    const auto inputs = makeInputs(12);
    auto noise = std::make_shared<NoiseModel>();
    for (int attempt = 0; attempt < 8; ++attempt)
        noise->set(4, attempt, 7); // Input 4 is always noisy.

    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.rollbackDepth = 1;
    config.maxReexecutions = 2;
    Engine engine(ex, inputs, ToyState{}, makeCompute(noise), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();

    EXPECT_EQ(engine.stats().reexecutions, 2);
    EXPECT_EQ(engine.stats().aborts, 1);

    // Recovery restarts from the first original state: input 4's
    // state keeps its attempt-0 noise, and the output at position 4
    // observes it.
    auto want = reference(inputs);
    want[4].observedPriorState = 4 * 10 + 7;
    expectOutputsEqual(engine.outputs(), want);
}

TEST(SpecEngine, FullHistoryStateNeverMatchesAndStaysCorrect)
{
    // fluidanimate-like: the state depends on *all* previous inputs,
    // so auxiliary code starting from the initial state cannot
    // reproduce it (paper section 4.8). The hash chain wraps, so step
    // it in unsigned arithmetic.
    const auto inputs = makeInputs(16);
    auto step = [](long long v, int input) {
        return (long long)((unsigned long long)v * 31u +
                           (unsigned long long)input);
    };
    auto compute = [step](const int &input, ToyState &state,
                          const sdi::ComputeContext &) -> Engine::Invocation {
        auto out = std::make_unique<ToyOutput>();
        out->observedPriorState = state.v;
        out->input = input;
        state.v = step(state.v, input);
        return {std::move(out), exec::Work{0.001, 0.0}};
    };

    std::vector<ToyOutput> want;
    {
        ToyState state;
        for (int input : inputs) {
            want.push_back({state.v, input});
            state.v = step(state.v, input);
        }
    }

    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 2;
    config.maxReexecutions = 1;
    Engine engine(ex, inputs, ToyState{}, compute, compute,
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();

    expectOutputsEqual(engine.outputs(), want);
    EXPECT_EQ(engine.stats().aborts, 1);
    EXPECT_EQ(engine.stats().validations, 0);
}

TEST(SpecEngine, ConventionalPathWhenAuxiliaryDisabled)
{
    const auto inputs = makeInputs(10);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.useAuxiliary = false;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();
    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().groups, 0);
    EXPECT_EQ(engine.stats().auxTasks, 0);
}

TEST(SpecEngine, SingleGroupFallsBackToConventional)
{
    const auto inputs = makeInputs(3);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 8; // Larger than the input count.
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();
    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().groups, 0);
}

TEST(SpecEngine, ValidByConstructionWithoutMatcher)
{
    const auto inputs = makeInputs(20);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 5;
    config.auxWindow = 1;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  /* match */ nullptr, config);
    engine.start();
    engine.join();
    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().validations, 3);
}

TEST(Matchers, DistanceBracketRuleWithSingleOriginalTolerance)
{
    const auto match = sdi::distanceBracketMatcher<double>(
        [](const double &a, const double &b) { return std::abs(a - b); },
        /* single_tolerance */ 0.5);
    // One original: only the tolerance can accept.
    EXPECT_EQ(match(1.0, {1.3}), 0);
    EXPECT_EQ(match(1.0, {1.6}), -1);
    // Two originals 1.0 apart: accepted within their spread, credited
    // to the original it is measured from.
    EXPECT_EQ(match(0.4, {0.0, 1.0}), 0);
    EXPECT_EQ(match(1.5, {0.0, 1.0}), 1);
    EXPECT_EQ(match(3.0, {0.0, 1.0}), -1);
}

/** Correctness sweep across group size / window / concurrency. */
class SpecEngineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(SpecEngineSweep, OutputsAlwaysMatchReference)
{
    const auto [n, group_size, aux_window, sd_threads] = GetParam();
    const auto inputs = makeInputs(n);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = group_size;
    config.auxWindow = aux_window;
    config.sdThreads = sd_threads;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();
    expectOutputsEqual(engine.outputs(), reference(inputs));
    if (aux_window >= 1) {
        EXPECT_EQ(engine.stats().aborts, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpecEngineSweep,
    ::testing::Combine(::testing::Values(1, 7, 24, 37),
                       ::testing::Values(1, 3, 8),
                       ::testing::Values(0, 1, 4),
                       ::testing::Values(1, 2, 16)));

TEST(SpecEngine, RunsOnRealThreads)
{
    const auto inputs = makeInputs(30);
    exec::ThreadExecutor ex(4);
    SpecConfig config;
    config.groupSize = 5;
    config.auxWindow = 1;
    config.sdThreads = 4;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  exactAnyMatcher(), config);
    engine.start();
    engine.join();
    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().aborts, 0);
}

TEST(SpecEngine, RealThreadsWithAbort)
{
    const auto inputs = makeInputs(30);
    exec::ThreadExecutor ex(4);
    SpecConfig config;
    config.groupSize = 5;
    config.auxWindow = 1;
    config.maxReexecutions = 1;
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr), makeAux(),
                  sdi::neverMatch<ToyState>(), config);
    engine.start();
    engine.join();
    expectOutputsEqual(engine.outputs(), reference(inputs));
    EXPECT_EQ(engine.stats().aborts, 1);
}

TEST(SpecEngineThreads, ReexecutionRunsBeforeQueuedSpeculation)
{
    // Groups of 4 inputs, one aux window in flight. On one worker,
    // group 0's commit submits group 2's aux window; group 1's aux
    // result then mismatches and asks for group 0's re-execution. The
    // re-execution validates the frontier, so it must run before that
    // newer speculation (which the abort then cancels).
    const auto inputs = makeInputs(16);
    std::vector<std::pair<bool, int>> ran; // (auxiliary, input)
    const Engine::ComputeFn inner = makeCompute(nullptr);
    const Engine::ComputeFn logged =
        [&ran, inner](const int &input, ToyState &state,
                      const sdi::ComputeContext &ctx) {
            ran.emplace_back(ctx.auxiliary, input);
            return inner(input, state, ctx);
        };
    exec::ThreadExecutor ex(1);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.sdThreads = 1;
    config.rollbackDepth = 1;
    config.maxReexecutions = 1;
    Engine engine(ex, inputs, ToyState{}, logged, logged,
                  sdi::neverMatch<ToyState>(), config);
    engine.start();
    engine.join();

    expectOutputsEqual(engine.outputs(), reference(inputs));
    ASSERT_EQ(engine.stats().reexecutions, 1);
    // Group 0's re-execution is the second original run of input 4;
    // group 2's aux window is the auxiliary run of input 8.
    const auto position = [&ran](bool auxiliary, int input, int nth) {
        for (std::size_t i = 0; i < ran.size(); ++i)
            if (ran[i] == std::pair{auxiliary, input} && nth-- == 0)
                return i;
        return ran.size();
    };
    const std::size_t reexecution = position(false, 4, 1);
    ASSERT_LT(reexecution, ran.size());
    EXPECT_LT(reexecution, position(true, 8, 0));
}

TEST(SpecEngine, RejectsATemporaryInputVector)
{
    // The engine keeps a reference to its inputs: a temporary vector
    // must not bind.
    static_assert(!std::is_constructible_v<
                  Engine, exec::Executor &, std::vector<int>, ToyState,
                  Engine::ComputeFn, Engine::ComputeFn, Engine::MatchFn,
                  SpecConfig>);
    static_assert(std::is_constructible_v<
                  Engine, exec::Executor &, const std::vector<int> &,
                  ToyState, Engine::ComputeFn, Engine::ComputeFn,
                  Engine::MatchFn, SpecConfig>);
    SUCCEED();
}

TEST(SpecEngine, MultipleDependencesShareOneExecutor)
{
    // The paper's runtime shares one thread pool among all state
    // dependences (section 3.4): two engines interleave their tasks
    // on the same executor without interference.
    const auto inputs_a = makeInputs(20);
    const auto inputs_b = makeInputs(32);
    exec::SimExecutor ex(simMachine(), 8);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;

    Engine engine_a(ex, inputs_a, ToyState{}, makeCompute(nullptr),
                    makeAux(), exactAnyMatcher(), config);
    Engine engine_b(ex, inputs_b, ToyState{}, makeCompute(nullptr),
                    makeAux(), exactAnyMatcher(), config);
    engine_a.start();
    engine_b.start();
    engine_a.join();
    engine_b.join();

    expectOutputsEqual(engine_a.outputs(), reference(inputs_a));
    expectOutputsEqual(engine_b.outputs(), reference(inputs_b));
    EXPECT_EQ(engine_a.stats().aborts, 0);
    EXPECT_EQ(engine_b.stats().aborts, 0);
}

TEST(SpecEngine, SharedRealThreadPool)
{
    const auto inputs_a = makeInputs(15);
    const auto inputs_b = makeInputs(25);
    exec::ThreadExecutor ex(4);
    SpecConfig config;
    config.groupSize = 5;
    config.auxWindow = 1;

    Engine engine_a(ex, inputs_a, ToyState{}, makeCompute(nullptr),
                    makeAux(), exactAnyMatcher(), config);
    Engine engine_b(ex, inputs_b, ToyState{}, makeCompute(nullptr),
                    makeAux(), exactAnyMatcher(), config);
    engine_a.start();
    engine_b.start();
    engine_b.join();
    engine_a.join();

    expectOutputsEqual(engine_a.outputs(), reference(inputs_a));
    expectOutputsEqual(engine_b.outputs(), reference(inputs_b));
}

} // namespace
