/**
 * @file
 * Stress tests for the thread executor's lock-free commit lane
 * (docs/INTERNALS.md §4): serialized completions are pushed onto a
 * Treiber stack and drained by exactly one elected worker, replacing
 * the former pool-wide commit mutex.
 *
 * What must hold under storms:
 *  - mutual exclusion: at most one serialized callback runs at a
 *    time (the engine mutates its bookkeeping there without locks);
 *  - conservation: every serialized completion runs exactly once —
 *    none lost in a drainer handoff race, none run twice;
 *  - commit-order protocol: under validation-mismatch storms (replay
 *    FaultPlan) and steal storms, the engine's Commit trace stream
 *    stays strictly frontier-ordered and the committed outputs equal
 *    the sequential reference.
 *
 * Runs under the `stress` ctest label, so the tsan/ubsan CI jobs pick
 * it up (docs/TESTING.md).
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_executor.hpp"
#include "observability/trace.hpp"
#include "replay/fault_plan.hpp"
#include "replay/session.hpp"
#include "sdi/spec_engine.hpp"

namespace {

using namespace stats;

TEST(CommitLaneStress, SerializedCompletionsAreMutuallyExclusive)
{
    exec::ThreadExecutor ex(8);
    constexpr int kProducers = 4;
    constexpr int kTasksPerProducer = 1500;
    constexpr int kTotal = kProducers * kTasksPerProducer;

    std::atomic<bool> in_lane{false};
    std::atomic<int> overlaps{0};
    // Deliberately unsynchronized: the commit lane's serialization is
    // the only thing making this vector safe. tsan verifies it.
    std::vector<int> completions;
    completions.reserve(kTotal);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ex, &in_lane, &overlaps, &completions,
                                p] {
            for (int i = 0; i < kTasksPerProducer; ++i) {
                exec::Task task;
                const int id = p * kTasksPerProducer + i;
                task.run = [] { return exec::Work{0.0, 0.0}; };
                task.onComplete = [&in_lane, &overlaps, &completions,
                                   id] {
                    if (in_lane.exchange(true,
                                         std::memory_order_acquire))
                        overlaps.fetch_add(1,
                                           std::memory_order_relaxed);
                    completions.push_back(id);
                    in_lane.store(false, std::memory_order_release);
                };
                ex.submit(std::move(task));
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    ex.drain();

    EXPECT_EQ(overlaps.load(), 0) << "two callbacks ran concurrently";
    ASSERT_EQ(completions.size(), std::size_t(kTotal));
    std::set<int> unique(completions.begin(), completions.end());
    EXPECT_EQ(unique.size(), std::size_t(kTotal))
        << "a completion ran twice (and another was lost)";

    const auto stats = ex.commitStats();
    EXPECT_EQ(stats.laneEnqueues, std::uint64_t(kTotal));
}

TEST(CommitLaneStress, DrainerHandoffLosesNothingAcrossWaves)
{
    // Many small waves: each drain() is a full quiescent point, so a
    // single stranded record (the classic release-recheck race) shows
    // up as a missing completion in that wave, not as end-of-test
    // noise.
    exec::ThreadExecutor ex(4);
    std::atomic<int> completed{0};
    int expected = 0;
    for (int wave = 0; wave < 200; ++wave) {
        const int count = 1 + (wave * 7) % 23;
        for (int i = 0; i < count; ++i) {
            exec::Task task;
            task.run = [] { return exec::Work{0.0, 0.0}; };
            task.onComplete = [&completed] {
                completed.fetch_add(1, std::memory_order_relaxed);
            };
            ex.submit(std::move(task));
        }
        expected += count;
        ex.drain();
        ASSERT_EQ(completed.load(), expected) << "wave " << wave;
    }
}

TEST(CommitLaneStress, CompletionChainsSurviveStealStorms)
{
    // Serialized completions that submit follow-up work: the chain's
    // next link enters the pool from whatever worker drained the
    // lane, so links hop workers (steal storms on an oversubscribed
    // pool). Chain order within each chain must still be sequential.
    exec::ThreadExecutor ex(8);
    constexpr int kChains = 16;
    constexpr int kLinks = 300;
    std::vector<int> progress(kChains, 0);
    std::atomic<int> broken{0};

    // Each chain link verifies it is its chain's next expected link.
    struct Chain
    {
        exec::ThreadExecutor *ex;
        std::vector<int> *progress;
        std::atomic<int> *broken;
        int chain;
        int link;

        void
        operator()() const
        {
            if ((*progress)[std::size_t(chain)] != link)
                broken->fetch_add(1, std::memory_order_relaxed);
            (*progress)[std::size_t(chain)] = link + 1;
            if (link + 1 == kLinks)
                return;
            exec::Task next;
            next.run = [] { return exec::Work{0.0, 0.0}; };
            next.onComplete =
                Chain{ex, progress, broken, chain, link + 1};
            ex->submit(std::move(next));
        }
    };

    for (int c = 0; c < kChains; ++c) {
        exec::Task task;
        task.run = [] { return exec::Work{0.0, 0.0}; };
        task.onComplete = Chain{&ex, &progress, &broken, c, 0};
        ex.submit(std::move(task));
    }
    ex.drain();

    EXPECT_EQ(broken.load(), 0);
    for (int c = 0; c < kChains; ++c)
        EXPECT_EQ(progress[std::size_t(c)], kLinks) << "chain " << c;
}

// ---------------------------------------------------------------------
// Engine commit protocol under mismatch storms (replay FaultPlan).

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

TEST(CommitLaneStress, MismatchStormsPreserveCommitOrder)
{
    const int n = 80;
    std::vector<int> inputs;
    for (int i = 1; i <= n; ++i)
        inputs.push_back(i);

    // Sequential reference (the toy dependence is deterministic, so
    // even abort-recovery must reproduce it exactly).
    std::vector<long long> want_prior;
    {
        ToyState state;
        for (int input : inputs) {
            want_prior.push_back(state.v);
            state.v = static_cast<long long>(input) * 10;
        }
    }

    auto &session = replay::ReplaySession::global();
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::string error;
        const auto plan = replay::FaultPlan::parse(
            "seed=" + std::to_string(seed) + ";storm=0.3", error);
        ASSERT_TRUE(plan.has_value()) << error;
        session.setFaultPlan(*plan);
        obs::Trace::global().enable();

        exec::ThreadExecutor ex(8);
        sdi::SpecConfig config;
        config.groupSize = 5;
        config.auxWindow = 1;
        config.maxReexecutions = 1;
        config.sdThreads = 8;
        Engine engine(ex, inputs, ToyState{}, toyCompute(),
                      toyCompute(), exactMatcher(), config);
        engine.start();
        engine.join();

        // No lost or duplicated commits: the committed stream is the
        // sequential one, whatever the storm squashed along the way.
        ASSERT_EQ(engine.outputs().size(), inputs.size());
        for (std::size_t i = 0; i < want_prior.size(); ++i) {
            ASSERT_EQ(engine.outputs()[i]->observedPriorState,
                      want_prior[i])
                << "seed " << seed << " position " << i;
        }

        // Commit-order protocol: Commit events are emitted from the
        // serialized lane with strictly increasing group indices, and
        // FrontierAdvance never moves backwards.
        const auto events = obs::Trace::global().collect();
        std::int64_t last_commit = -1;
        std::int64_t frontier = 0;
        std::int64_t commits = 0;
        for (const auto &event : events) {
            if (event.type == obs::EventType::Commit) {
                EXPECT_GT(event.group, last_commit)
                    << "seed " << seed
                    << ": commit out of frontier order";
                last_commit = event.group;
                ++commits;
            } else if (event.type ==
                       obs::EventType::FrontierAdvance) {
                EXPECT_GE(event.arg, frontier) << "seed " << seed;
                frontier = event.arg;
            }
        }
        const auto &stats = engine.stats();
        // Group 0 commits without validation; every other committed
        // group passed exactly one successful validation.
        EXPECT_EQ(commits, stats.validations + 1) << "seed " << seed;
        if (stats.aborts > 0) {
            EXPECT_GT(stats.squashedGroups, 0) << "seed " << seed;
        }

        // The committed path flowed through the lock-free lane.
        EXPECT_GT(ex.commitStats().laneEnqueues, 0u);

        obs::Trace::global().disable();
        obs::Trace::global().clear();
        session.setFaultPlan(replay::FaultPlan{});
    }
}

} // namespace
