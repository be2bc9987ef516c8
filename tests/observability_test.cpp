/**
 * @file
 * Tests of the observability layer (docs/OBSERVABILITY.md).
 *
 * Three angles:
 *  - the Trace sink itself (ring-buffer wrap accounting, adjacent
 *    span sequence numbers, the disabled path recording nothing);
 *  - event streams of real engine runs obey the documented ordering
 *    guarantees of the group status machine (no Commit before the
 *    group's BodyEnd; Squash only after a ValidateMismatch) and
 *    reconcile with the engine's own EngineStats counters;
 *  - the schema is closed: every event type is named in
 *    docs/OBSERVABILITY.md and appears in the exporters' output.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sim_executor.hpp"
#include "exec/thread_executor.hpp"
#include "observability/chrome_trace.hpp"
#include "observability/summary.hpp"
#include "observability/trace.hpp"
#include "sdi/matchers.hpp"
#include "sdi/spec_engine.hpp"

#include "repo_files.hpp"

namespace {

using namespace stats;
using namespace stats::repo_files;
using obs::Event;
using obs::EventType;
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

sim::MachineConfig
simMachine()
{
    sim::MachineConfig config;
    config.dispatchOverhead = 0.0;
    return config;
}

/**
 * Fixture: a clean, enabled trace per test. Tests that need the
 * disabled path call disable() themselves.
 */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!STATS_OBS_ENABLED)
            GTEST_SKIP() << "tracing compiled out (STATS_OBS_DISABLE)";
        obs::Trace::global().disable();
        obs::Trace::global().clear();
        obs::Trace::global().enable();
    }

    void
    TearDown() override
    {
        obs::Trace::global().disable();
        obs::Trace::global().clear();
    }
};

/** Run the toy engine on the simulator and return (events, stats). */
std::pair<std::vector<Event>, sdi::EngineStats>
tracedRun(const std::vector<int> &inputs, const SpecConfig &config,
          Engine::MatchFn matcher,
          std::shared_ptr<NoiseModel> noise = nullptr)
{
    exec::SimExecutor ex(simMachine(), 8);
    Engine engine(ex, inputs, ToyState{}, makeCompute(noise),
                  makeCompute(nullptr), std::move(matcher), config);
    engine.start();
    engine.join();
    return {obs::Trace::global().collect(), engine.stats()};
}

std::int64_t
countType(const std::vector<Event> &events, EventType type)
{
    return std::count_if(events.begin(), events.end(),
                         [type](const Event &e) { return e.type == type; });
}

// ---------------------------------------------------------------- sink

TEST_F(ObsTest, RecordsNothingWhileDisabled)
{
    obs::Trace::global().disable();
    const auto [events, stats] = tracedRun(
        makeInputs(20),
        [] {
            SpecConfig config;
            config.groupSize = 4;
            config.auxWindow = 1;
            return config;
        }(),
        exactAnyMatcher());
    EXPECT_GT(stats.groups, 0);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(obs::Trace::global().dropped(), 0u);
}

TEST_F(ObsTest, RingBufferKeepsNewestEventsAndCountsDrops)
{
    auto &trace = obs::Trace::global();
    trace.disable();
    trace.clear();
    trace.enable(/* per_thread_capacity */ 16); // The floor capacity.
    for (int i = 0; i < 40; ++i)
        trace.record(EventType::Commit, i, i, i + 1, 0.1 * i,
                     obs::kFrontierTrack, 0);
    const auto events = trace.collect();
    ASSERT_EQ(events.size(), 16u);
    EXPECT_EQ(trace.dropped(), 24u);
    // The survivors are the newest 16, in seq order.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_EQ(events.back().group, 39);
    EXPECT_EQ(events.front().group, 24);
}

TEST_F(ObsTest, SpanPairsGetAdjacentSequenceNumbers)
{
    auto &trace = obs::Trace::global();
    obs::TaskTag tag;
    tag.kind = obs::TaskKind::Body;
    tag.group = 3;
    tag.inputBegin = 12;
    tag.inputEnd = 16;
    trace.recordSpan(tag, 1.0, 2.0, /* track */ 0);
    const auto events = trace.collect();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, EventType::BodyStart);
    EXPECT_EQ(events[1].type, EventType::BodyEnd);
    EXPECT_EQ(events[0].seq + 1, events[1].seq);
    EXPECT_EQ(events[0].ts, 1.0);
    EXPECT_EQ(events[1].ts, 2.0);
    EXPECT_EQ(events[0].group, 3);
    EXPECT_EQ(events[1].inputEnd, 16);
}

TEST_F(ObsTest, ClearResetsEventsAndDropCounter)
{
    auto &trace = obs::Trace::global();
    trace.record(EventType::Commit, 0, 0, 1, 0.0, obs::kFrontierTrack,
                 0);
    ASSERT_EQ(trace.collect().size(), 1u);
    trace.clear();
    EXPECT_TRUE(trace.collect().empty());
    EXPECT_EQ(trace.dropped(), 0u);
    // Recording still works after a clear (new epoch, new sinks).
    trace.record(EventType::Commit, 1, 1, 2, 0.0, obs::kFrontierTrack,
                 0);
    EXPECT_EQ(trace.collect().size(), 1u);
}

TEST_F(ObsTest, ClearIsMemorySafeWhileAnIdleThreadRecords)
{
    // An idle pool worker records park/unpark events outside any
    // task, so even a clear() after drain() can race with it; the
    // worker's cached sink must outlive the clear.
    auto &trace = obs::Trace::global();
    trace.enable(/* per_thread_capacity */ 16);
    std::atomic<bool> stop{false};
    std::atomic<int> recorded{0};
    std::thread recorder([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            trace.record(EventType::WorkerPark, -1, -1, -1, 0.0, 0);
            recorded.fetch_add(1, std::memory_order_relaxed);
        }
    });
    for (int i = 0; i < 2000; ++i) {
        // Clear only once the recorder is using its current sink.
        const int seen = recorded.load(std::memory_order_relaxed);
        while (recorded.load(std::memory_order_relaxed) == seen)
            std::this_thread::yield();
        trace.clear();
    }
    stop.store(true, std::memory_order_relaxed);
    recorder.join();
    trace.record(EventType::Commit, 0, 0, 1, 0.0, obs::kFrontierTrack,
                 0);
    EXPECT_FALSE(trace.collect().empty());
}

// ------------------------------------------------- ordering guarantees

TEST_F(ObsTest, CleanRunOrderingFollowsTheStatusMachine)
{
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.sdThreads = 8;
    const auto [events, stats] =
        tracedRun(makeInputs(20), config, exactAnyMatcher());
    ASSERT_EQ(stats.aborts, 0);

    // Collected order is seq order.
    for (std::size_t i = 1; i < events.size(); ++i)
        ASSERT_LT(events[i - 1].seq, events[i].seq);

    std::map<std::int32_t, std::uint64_t> body_end, aux_end, commit,
        validate;
    for (const auto &event : events) {
        switch (event.type) {
        case EventType::BodyEnd:
            body_end[event.group] = event.seq;
            break;
        case EventType::AuxEnd:
            aux_end[event.group] = event.seq;
            break;
        case EventType::Commit:
            ASSERT_EQ(commit.count(event.group), 0u)
                << "group committed twice";
            commit[event.group] = event.seq;
            break;
        case EventType::ValidateMatch:
            validate[event.group] = event.seq;
            break;
        default:
            break;
        }
    }

    // Every group committed exactly once, and only after its body
    // finished: a Commit instant is emitted from the completion
    // callback that *follows* the recorded BodyEnd.
    EXPECT_EQ(static_cast<std::int64_t>(commit.size()), stats.groups);
    for (const auto &[group, seq] : commit) {
        ASSERT_TRUE(body_end.count(group)) << "group " << group;
        EXPECT_LT(body_end[group], seq) << "group " << group;
    }

    // Speculative groups validate after their auxiliary run and
    // before their commit.
    EXPECT_EQ(static_cast<std::int64_t>(validate.size()),
              stats.validations);
    for (const auto &[group, seq] : validate) {
        ASSERT_TRUE(aux_end.count(group)) << "group " << group;
        EXPECT_LT(aux_end[group], seq) << "group " << group;
        ASSERT_TRUE(commit.count(group)) << "group " << group;
        EXPECT_LT(seq, commit[group]) << "group " << group;
    }

    // Commits advance the frontier in group order, each immediately
    // followed by its FrontierAdvance instant.
    std::int32_t last_committed = -1;
    for (const auto &event : events) {
        if (event.type != EventType::Commit)
            continue;
        EXPECT_EQ(event.group, last_committed + 1);
        last_committed = event.group;
    }
    EXPECT_EQ(countType(events, EventType::FrontierAdvance),
              stats.groups);
}

TEST_F(ObsTest, SquashImpliesAPriorValidateMismatch)
{
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.maxReexecutions = 0;
    const auto [events, stats] =
        tracedRun(makeInputs(17), config, sdi::neverMatch<ToyState>());
    ASSERT_EQ(stats.aborts, 1);

    const auto first_mismatch = std::find_if(
        events.begin(), events.end(), [](const Event &e) {
            return e.type == EventType::ValidateMismatch;
        });
    ASSERT_NE(first_mismatch, events.end());

    const auto squashes = countType(events, EventType::Squash);
    EXPECT_EQ(squashes, stats.squashedGroups);
    EXPECT_GT(squashes, 0);
    for (const auto &event : events) {
        if (event.type == EventType::Squash ||
            event.type == EventType::Abort) {
            EXPECT_GT(event.seq, first_mismatch->seq);
        }
    }

    // Recovery reprocesses the squashed inputs sequentially, after
    // the abort.
    const auto abort_it = std::find_if(
        events.begin(), events.end(),
        [](const Event &e) { return e.type == EventType::Abort; });
    ASSERT_NE(abort_it, events.end());
    const auto recovery = std::find_if(
        events.begin(), events.end(), [](const Event &e) {
            return e.type == EventType::RecoveryStart;
        });
    ASSERT_NE(recovery, events.end());
    EXPECT_GT(recovery->seq, abort_it->seq);
    EXPECT_EQ(recovery->inputEnd, 17);
}

TEST_F(ObsTest, ReexecutionEmitsRollbackThenReexecSpan)
{
    auto noise = std::make_shared<NoiseModel>();
    noise->set(/* input */ 4, /* attempt */ 0, /* noise */ 7);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.rollbackDepth = 1;
    config.maxReexecutions = 2;
    const auto [events, stats] =
        tracedRun(makeInputs(12), config, exactAnyMatcher(), noise);
    ASSERT_EQ(stats.mismatches, 1);
    ASSERT_EQ(stats.reexecutions, 1);

    // ValidateMismatch -> Rollback -> ReExecStart/End -> the
    // consumer's ValidateMatch, all in seq order.
    std::uint64_t mismatch_seq = 0, rollback_seq = 0, reexec_seq = 0;
    for (const auto &event : events) {
        if (event.type == EventType::ValidateMismatch)
            mismatch_seq = event.seq;
        if (event.type == EventType::Rollback)
            rollback_seq = event.seq;
        if (event.type == EventType::ReExecStart)
            reexec_seq = event.seq;
    }
    ASSERT_GT(mismatch_seq, 0u);
    EXPECT_GT(rollback_seq, mismatch_seq);
    EXPECT_GT(reexec_seq, rollback_seq);
    EXPECT_EQ(countType(events, EventType::ReExecEnd), 1);
}

// --------------------------------------------------- reconciliation

TEST_F(ObsTest, SummaryReconcilesWithEngineStats)
{
    auto noise = std::make_shared<NoiseModel>();
    noise->set(4, 0, 7);
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.rollbackDepth = 1;
    config.maxReexecutions = 2;
    const auto [events, stats] =
        tracedRun(makeInputs(12), config, exactAnyMatcher(), noise);

    const auto summary = obs::summarizeTrace(events);
    EXPECT_EQ(summary.count(EventType::ValidateMatch),
              stats.validations);
    EXPECT_EQ(summary.count(EventType::ValidateMismatch),
              stats.mismatches);
    EXPECT_EQ(summary.count(EventType::ReExecStart),
              stats.reexecutions);
    EXPECT_EQ(summary.count(EventType::Rollback), stats.reexecutions);
    EXPECT_EQ(summary.count(EventType::Abort), stats.aborts);
    EXPECT_EQ(summary.count(EventType::Squash), stats.squashedGroups);
    // No abort: every group commits.
    EXPECT_EQ(summary.count(EventType::Commit), stats.groups);
    EXPECT_EQ(summary.count(EventType::AuxStart), stats.auxTasks);
    EXPECT_EQ(summary.groupsSeen, stats.groups);
    EXPECT_DOUBLE_EQ(summary.commitRate, 1.0);
    EXPECT_GT(summary.auxSeconds, 0.0);
    EXPECT_GT(summary.bodySeconds, 0.0);
    EXPECT_GT(summary.reexecSeconds, 0.0);
}

TEST_F(ObsTest, AbortRunSummaryCountsSquashedGroups)
{
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.maxReexecutions = 0;
    const auto [events, stats] =
        tracedRun(makeInputs(17), config, sdi::neverMatch<ToyState>());
    const auto summary = obs::summarizeTrace(events);
    EXPECT_EQ(summary.count(EventType::Abort), stats.aborts);
    EXPECT_EQ(summary.count(EventType::Squash), stats.squashedGroups);
    EXPECT_EQ(summary.count(EventType::Commit) +
                  summary.count(EventType::Squash),
              stats.groups);
    EXPECT_GT(summary.squashRate, 0.0);
    EXPECT_GT(summary.recoverySeconds, 0.0);
}

TEST_F(ObsTest, ThreadExecutorRunProducesAConsistentTrace)
{
    exec::ThreadExecutor ex(4);
    SpecConfig config;
    config.groupSize = 5;
    config.auxWindow = 1;
    config.sdThreads = 4;
    const auto inputs = makeInputs(30);
    Engine engine(ex, inputs, ToyState{}, makeCompute(nullptr),
                  makeCompute(nullptr), exactAnyMatcher(), config);
    engine.start();
    engine.join();
    const auto events = obs::Trace::global().collect();
    const auto summary = obs::summarizeTrace(events);
    EXPECT_EQ(summary.count(EventType::Commit), engine.stats().groups);
    EXPECT_EQ(summary.count(EventType::ValidateMatch),
              engine.stats().validations);
    // Worker threads registered real (non-frontier) tracks.
    bool saw_worker_track = false;
    for (const auto &event : events)
        saw_worker_track |= event.track >= 0;
    EXPECT_TRUE(saw_worker_track);
}

// ------------------------------------------------- schema and exports

TEST(ObservabilitySchema, EveryEventTypeHasAUniqueName)
{
    std::vector<std::string> names;
    for (int i = 0; i < obs::kEventTypeCount; ++i)
        names.push_back(
            obs::eventTypeName(static_cast<EventType>(i)));
    auto sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (const auto &name : names)
        EXPECT_FALSE(name.empty());
}

TEST(ObservabilitySchema, DocumentationCoversEveryEventType)
{
    const std::string doc = readRepoFile("docs/OBSERVABILITY.md");
    ASSERT_FALSE(doc.empty());
    for (int i = 0; i < obs::kEventTypeCount; ++i) {
        const std::string name =
            obs::eventTypeName(static_cast<EventType>(i));
        EXPECT_NE(doc.find(backticked(name)), std::string::npos)
            << "docs/OBSERVABILITY.md does not document event type "
            << name;
    }
    EXPECT_NE(doc.find("schemaVersion"), std::string::npos);
}

TEST_F(ObsTest, ChromeExportPairsSpansAndNamesTracks)
{
    SpecConfig config;
    config.groupSize = 4;
    config.auxWindow = 1;
    config.sdThreads = 8;
    const auto [events, stats] =
        tracedRun(makeInputs(20), config, exactAnyMatcher());
    std::ostringstream out;
    obs::writeChromeTrace(out, events);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("frontier"), std::string::npos);
    EXPECT_NE(json.find("exec 0"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Spans became one complete event each: no dangling Start halves.
    EXPECT_EQ(json.find("BodyStart"), std::string::npos);

    // The metrics document carries the same commit count the chrome
    // instants show (the acceptance cross-check).
    std::ostringstream metrics;
    obs::writeSummaryJson(metrics, obs::summarizeTrace(events));
    std::ostringstream commits;
    commits << "\"Commit\": " << stats.groups;
    EXPECT_NE(metrics.str().find(commits.str()), std::string::npos);
}

} // namespace
