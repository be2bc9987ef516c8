/**
 * @file
 * Stress and determinism tests for the thread pool and executor.
 *
 * The stress tests hammer the pool with many external producers,
 * random-size task bursts, and cancellation storms, asserting the
 * conservation law the completion accounting promises: every
 * submitted task runs exactly once (as executed or as cancelled),
 * and waitIdle() never returns while work remains. The determinism
 * test pins that the speculation engine's committed output — which
 * depends only on the serialized commit lane, not on which worker
 * ran which task — is unchanged on an oversubscribed executor.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_executor.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace stats;
using threading::PoolTask;
using threading::ThreadPool;

TEST(SchedulerStress, ManyProducersLoseNoTasks)
{
    ThreadPool pool(4);
    constexpr int kProducers = 8;
    constexpr int kBurstsPerProducer = 40;
    std::atomic<std::uint64_t> ran{0};
    std::atomic<std::uint64_t> submitted{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            std::mt19937 rng(static_cast<unsigned>(p) * 7919u + 1);
            std::uniform_int_distribution<int> burst(1, 32);
            for (int b = 0; b < kBurstsPerProducer; ++b) {
                const int count = burst(rng);
                if (b % 2 == 0) {
                    for (int i = 0; i < count; ++i)
                        pool.submit([&ran] {
                            ran.fetch_add(1, std::memory_order_relaxed);
                        });
                } else {
                    std::vector<PoolTask> batch;
                    batch.reserve(static_cast<std::size_t>(count));
                    for (int i = 0; i < count; ++i) {
                        PoolTask task;
                        task.run = [&ran](bool) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                        };
                        batch.push_back(std::move(task));
                    }
                    pool.submitBatch(std::move(batch));
                }
                submitted.fetch_add(
                    static_cast<std::uint64_t>(count),
                    std::memory_order_relaxed);
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    pool.waitIdle();

    EXPECT_EQ(ran.load(), submitted.load());
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.submitted, submitted.load());
    EXPECT_EQ(stats.executed, submitted.load());
}

TEST(SchedulerStress, CancellationStormConservesTasks)
{
    // Flip cancel flags concurrently with execution: every task must
    // still complete exactly once, either run or observed-cancelled.
    ThreadPool pool(4);
    constexpr int kTasks = 2000;
    std::atomic<std::uint64_t> ran{0};
    std::atomic<std::uint64_t> cancelled{0};

    std::vector<threading::CancelFlag> flags;
    flags.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i)
        flags.push_back(std::make_shared<std::atomic<bool>>(false));

    std::thread storm([&flags] {
        std::mt19937 rng(12345);
        std::uniform_int_distribution<int> pick(0, kTasks - 1);
        for (int i = 0; i < kTasks; ++i)
            flags[static_cast<std::size_t>(pick(rng))]->store(true);
    });

    for (int i = 0; i < kTasks; ++i) {
        PoolTask task;
        task.cancel = flags[static_cast<std::size_t>(i)];
        task.run = [&ran, &cancelled](bool was_cancelled) {
            (was_cancelled ? cancelled : ran)
                .fetch_add(1, std::memory_order_relaxed);
        };
        pool.submit(std::move(task));
    }
    storm.join();
    pool.waitIdle();

    EXPECT_EQ(ran.load() + cancelled.load(),
              static_cast<std::uint64_t>(kTasks));
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(stats.cancelled, cancelled.load());
}

TEST(SchedulerStress, DrainNeverReturnsEarly)
{
    // Each task leaves a visible mark before it counts as done; if
    // waitIdle ever returned with work outstanding, the counts at
    // the check would disagree.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> done{0};
    std::mt19937 rng(99);
    std::uniform_int_distribution<int> burst(1, 64);
    std::uint64_t expected = 0;
    for (int round = 0; round < 50; ++round) {
        const int count = burst(rng);
        for (int i = 0; i < count; ++i)
            pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            });
        expected += static_cast<std::uint64_t>(count);
        pool.waitIdle();
        ASSERT_EQ(done.load(), expected) << "round " << round;
    }
}

// ---------------------------------------------------------------------
// Engine determinism under stealing (same toy dependence as
// spec_engine_test: state = 10 * last input, outputs record the prior
// state, so any mis-chaining is visible in the committed stream).

struct ToyState
{
    long long v = 0;
};

struct ToyOutput
{
    long long observedPriorState;
    int input;
};

using Engine = sdi::SpecEngine<int, ToyState, ToyOutput>;

Engine::ComputeFn
toyCompute()
{
    return [](const int &input, ToyState &state,
              const sdi::ComputeContext &) -> Engine::Invocation {
        auto out = std::make_unique<ToyOutput>();
        out->observedPriorState = state.v;
        out->input = input;
        state.v = static_cast<long long>(input) * 10;
        return {std::move(out), exec::Work{0.0001, 0.0}};
    };
}

Engine::MatchFn
exactMatcher()
{
    return [](const ToyState &spec,
              const std::vector<ToyState> &originals) -> int {
        for (std::size_t i = 0; i < originals.size(); ++i) {
            if (originals[i].v == spec.v)
                return static_cast<int>(i);
        }
        return -1;
    };
}

TEST(SchedulerDeterminism, EngineOutputUnchangedUnderStealing)
{
    const int n = 60;
    std::vector<int> inputs;
    for (int i = 1; i <= n; ++i)
        inputs.push_back(i);

    // Sequential reference.
    std::vector<ToyOutput> want;
    {
        ToyState state;
        for (int input : inputs) {
            want.push_back({state.v, input});
            state.v = static_cast<long long>(input) * 10;
        }
    }

    // Oversubscribed executor maximizes interleavings and steals.
    for (int repeat = 0; repeat < 5; ++repeat) {
        exec::ThreadExecutor ex(8);
        sdi::SpecConfig config;
        config.groupSize = 5;
        config.auxWindow = 1;
        config.sdThreads = 8;
        Engine engine(ex, inputs, ToyState{}, toyCompute(), toyCompute(),
                      exactMatcher(), config);
        engine.start();
        engine.join();

        ASSERT_EQ(engine.outputs().size(), inputs.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(engine.outputs()[i]->observedPriorState,
                      want[i].observedPriorState)
                << "repeat " << repeat << " position " << i;
            ASSERT_EQ(engine.outputs()[i]->input, want[i].input);
        }
        // Every group committed: the engine's bookkeeping (mutated
        // only in the commit lane) saw no squash or abort.
        EXPECT_EQ(engine.stats().aborts, 0);
        EXPECT_EQ(engine.stats().squashedGroups, 0);
        EXPECT_EQ(engine.stats().validations,
                  engine.stats().groups - 1);
    }
}

} // namespace
