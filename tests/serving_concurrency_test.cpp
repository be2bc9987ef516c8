/**
 * @file
 * Serving concurrency tier (ctest label: serving-stress): the
 * multi-worker execution plane (docs/SERVING.md §5) must be
 * behaviorally invisible. N workers have to produce byte-identical
 * results, record logs, and replay-fetch output to one worker; a
 * result-cache hit has to be byte-identical to a recompute; and
 * drain must stay live while submitters hammer the server. TSan CI
 * runs this suite to shake out registry/scheduler/cache races.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "replay/record_log.hpp"
#include "replay/session.hpp"
#include "serving/execution_plan.hpp"
#include "serving/runner.hpp"
#include "serving/server.hpp"

#include "serving_test_util.hpp"

namespace {

using namespace stats;
using serving::ExecutionPlan;
using serving::JobKind;
using serving::PlanResult;
using serving::PlanRunner;
using serving::RequestState;
using serving::Server;
using serving::TenantQuota;
using serving_testing::Gate;
using serving_testing::pollUntil;

/** Same minimal module the unit suite serves. */
const char *const kFixtureModule =
    "module \"serving_fixture\"\n"
    "statedep SD0 compute=@computeOutput\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = add i64 %state, %input\n"
    "  ret i64 %a\n"
    "}\n";

/** A second program, so the workload spans compatibility keys. */
const char *const kOtherModule =
    "module \"serving_other\"\n"
    "statedep SD0 compute=@computeOutput\n"
    "\n"
    "func @computeOutput(i64 %input, i64 %state) -> i64 {\n"
    "entry:\n"
    "  %a = mul i64 %state, 3\n"
    "  %b = add i64 %a, %input\n"
    "  ret i64 %b\n"
    "}\n";

ExecutionPlan
basePlan(std::uint64_t seed, const std::string &tenant)
{
    ExecutionPlan plan;
    plan.kind = JobKind::IrSequential;
    plan.tenant = tenant;
    plan.moduleText = kFixtureModule;
    plan.rootSeed = seed;
    plan.inputs = 12;
    plan.noisyPercent = 25;
    plan.maxNoise = 2;
    return plan;
}

/**
 * The mixed 32-plan workload: four tenants, sequential and
 * speculative kinds, lane caps 1/2/4, two distinct programs, and a
 * few repeated (program, seed) pairs — everything the scheduler's
 * fusion and the runner's compile cache have to juggle at once.
 */
std::vector<ExecutionPlan>
mixedWorkload()
{
    const char *tenants[] = {"alpha", "beta", "gamma", "delta"};
    std::vector<ExecutionPlan> plans;
    for (std::uint64_t i = 0; i < 32; ++i) {
        // i % 24 repeats eight (program, seed) pairs verbatim.
        ExecutionPlan plan = basePlan(1000 + i % 24, tenants[i % 4]);
        if (i % 4 == 3)
            plan.kind = JobKind::IrSpeculative;
        else
            plan.batchLanes = static_cast<int>(1 + (i % 3));
        if (i % 5 == 0)
            plan.moduleText = kOtherModule;
        plan.priority = static_cast<int>(i % 3) - 1;
        plans.push_back(std::move(plan));
    }
    return plans;
}

Server::Options
workerOptions(std::size_t workers, std::size_t cache_capacity)
{
    Server::Options options;
    options.executionWorkers = workers;
    options.resultCacheCapacity = cache_capacity;
    options.defaultQuota.ratePerSec = 1e6;
    options.defaultQuota.burst = 1e6;
    options.defaultQuota.maxQueued = 4096;
    return options;
}

/** Submit every plan (asserting admission) and drain. */
std::vector<std::uint64_t>
serveAll(Server &server, const std::vector<ExecutionPlan> &plans)
{
    std::vector<std::uint64_t> ids;
    for (const auto &plan : plans) {
        const auto outcome = server.submitPlan(plan);
        EXPECT_TRUE(outcome.admitted()) << outcome.verdict.detail;
        ids.push_back(outcome.requestId);
    }
    server.drain();
    return ids;
}

// =================================================== Byte identity

TEST(ServingConcurrencyTest, MultiWorkerMatchesSingleWorkerByteForByte)
{
    const auto plans = mixedWorkload();

    // Caches off: every plan must actually execute, so this compares
    // concurrent execution itself, not cache short-circuits.
    Server wide(workerOptions(4, 0));
    Server narrow(workerOptions(1, 0));
    ASSERT_EQ(wide.workerCount(), 4u);
    ASSERT_EQ(narrow.workerCount(), 1u);

    const auto wide_ids = serveAll(wide, plans);
    const auto narrow_ids = serveAll(narrow, plans);

    for (std::size_t i = 0; i < plans.size(); ++i) {
        const auto a = wide.status(wide_ids[i]);
        const auto b = narrow.status(narrow_ids[i]);
        ASSERT_EQ(a.state, RequestState::Done)
            << "plan " << i << ": " << a.result.error;
        ASSERT_EQ(b.state, RequestState::Done)
            << "plan " << i << ": " << b.result.error;
        EXPECT_EQ(a.result.resultBlob, b.result.resultBlob)
            << "plan " << i;
        EXPECT_EQ(a.result.finalState, b.result.finalState)
            << "plan " << i;
        EXPECT_EQ(a.result.invocations, b.result.invocations)
            << "plan " << i;
        // Replay-fetch output must match too: recording under four
        // concurrent scoped sessions cannot bleed across runs.
        EXPECT_EQ(wide.replayLog(wide_ids[i]),
                  narrow.replayLog(narrow_ids[i]))
            << "plan " << i;
    }
}

// ====================================================== Result cache

TEST(ServingConcurrencyTest, CacheHitMatchesRecomputeByteForByte)
{
    Server server(workerOptions(4, 16));

    ExecutionPlan plan = basePlan(77, "alpha");
    plan.kind = JobKind::IrSpeculative; // Records a real choice log.

    const auto first = server.submitPlan(plan);
    ASSERT_TRUE(first.admitted()) << first.verdict.detail;
    ASSERT_TRUE(pollUntil([&] {
        return server.status(first.requestId).state ==
               RequestState::Done;
    }));

    // Identical resubmission: answered from the cache at admission.
    const auto hit = server.submitPlan(plan);
    ASSERT_TRUE(hit.admitted()) << hit.verdict.detail;
    EXPECT_EQ(server.status(hit.requestId).state, RequestState::Done);
    EXPECT_EQ(server.resultCacheHits(), 1u);
    EXPECT_GE(server.resultCacheSize(), 1u);

    // noCache opts out: same work recomputes, bytes must still match.
    ExecutionPlan uncached = plan;
    uncached.noCache = true;
    const auto recompute = server.submitPlan(uncached);
    ASSERT_TRUE(recompute.admitted()) << recompute.verdict.detail;
    ASSERT_TRUE(pollUntil([&] {
        return server.status(recompute.requestId).state ==
               RequestState::Done;
    }));
    EXPECT_EQ(server.resultCacheHits(), 1u); // The bypass never hits.

    const auto a = server.status(first.requestId);
    const auto b = server.status(hit.requestId);
    const auto c = server.status(recompute.requestId);
    EXPECT_EQ(a.result.resultBlob, b.result.resultBlob);
    EXPECT_EQ(a.result.resultBlob, c.result.resultBlob);
    EXPECT_EQ(a.result.finalState, c.result.finalState);
    // The cached entry carries the record log, so replay-fetch on a
    // cache-hit id is byte-identical to the recompute's.
    EXPECT_FALSE(server.replayLog(first.requestId).empty());
    EXPECT_EQ(server.replayLog(first.requestId),
              server.replayLog(hit.requestId));
    EXPECT_EQ(server.replayLog(first.requestId),
              server.replayLog(recompute.requestId));
    server.drain();
}

// ================================================== Replay coherence

TEST(ServingConcurrencyTest, ConcurrentlyRecordedLogsReplayCleanly)
{
    // Twelve speculative plans recorded on four workers at once, then
    // each log replayed — concurrently, under scoped sessions — with
    // zero divergence against a fresh local run.
    Server server(workerOptions(4, 0));
    std::vector<ExecutionPlan> plans;
    for (std::uint64_t seed = 500; seed < 512; ++seed) {
        ExecutionPlan plan = basePlan(seed, seed % 2 ? "alpha"
                                                     : "beta");
        plan.kind = JobKind::IrSpeculative;
        plans.push_back(std::move(plan));
    }
    const auto ids = serveAll(server, plans);

    std::atomic<int> failures{0};
    std::vector<std::thread> replayers;
    Gate gate;
    for (std::size_t t = 0; t < 4; ++t) {
        replayers.emplace_back([&, t] {
            gate.wait();
            PlanRunner runner;
            for (std::size_t i = t; i < plans.size(); i += 4) {
                const std::string served = server.replayLog(ids[i]);
                const auto expected = server.status(ids[i]);
                std::istringstream stream(served);
                std::string error;
                const auto log =
                    replay::RecordLog::load(stream, error);
                if (!log || log->records.empty()) {
                    ++failures;
                    continue;
                }
                ExecutionPlan again = plans[i];
                again.recordChoices = false;
                replay::ReplaySession session;
                session.startReplay(*log);
                const PlanResult rerun = runner.runPlan(again, session);
                const auto report = session.finishReplay();
                if (!rerun.ok || report.diverged ||
                    report.recordsMatched != log->records.size() ||
                    rerun.resultBlob != expected.result.resultBlob)
                    ++failures;
            }
        });
    }
    gate.open();
    for (auto &thread : replayers)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
}

// ================================================== Drain under load

TEST(ServingConcurrencyTest, DrainUnderLoadCompletesEveryAdmission)
{
    Server server(workerOptions(4, 8));

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 25;
    std::mutex ids_mutex;
    std::vector<std::uint64_t> admitted;
    Gate gate;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            gate.wait();
            for (int i = 0; i < kPerThread; ++i) {
                ExecutionPlan plan = basePlan(
                    static_cast<std::uint64_t>(t * 100 + i),
                    t % 2 ? "alpha" : "beta");
                const auto outcome = server.submitPlan(plan);
                if (!outcome.admitted())
                    return; // Drain began: rejected from here on.
                std::lock_guard<std::mutex> lock(ids_mutex);
                admitted.push_back(outcome.requestId);
            }
        });
    }
    gate.open();
    // Let the pool take real load before pulling the plug.
    ASSERT_TRUE(pollUntil([&] {
        return server.completedCount() >= 8;
    }));
    const std::uint64_t completed = server.drain();
    for (auto &thread : submitters)
        thread.join();

    // Liveness: drain returned, finished everything it had admitted,
    // and no admitted request is stranded mid-state.
    std::lock_guard<std::mutex> lock(ids_mutex);
    EXPECT_EQ(completed, admitted.size());
    EXPECT_EQ(server.queueDepth(), 0u);
    for (const auto id : admitted)
        EXPECT_EQ(server.status(id).state, RequestState::Done)
            << "request " << id;
    EXPECT_EQ(
        server.submitPlan(basePlan(9999, "alpha")).verdict.reason,
        serving::RejectReason::Draining);
}

// ============================================== Registry under churn

TEST(ServingConcurrencyTest, RegistryAndCacheSurviveConcurrentReaders)
{
    // Pure TSan fodder: submitters (with repeated seeds, so the cache
    // hits concurrently with fills), readers spinning every query
    // surface, and the worker pool all share the registry at once.
    Server server(workerOptions(4, 4));
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> high_water{1};
    Gate gate;

    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            gate.wait();
            std::uint64_t probe = 1 + static_cast<std::uint64_t>(t);
            while (!done.load(std::memory_order_relaxed)) {
                const auto id = 1 + probe++ % high_water.load();
                (void)server.status(id);
                (void)server.replayLog(id);
                (void)server.queueDepth();
                (void)server.resultCacheSize();
                (void)server.resultCacheHits();
            }
        });
    }

    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&, t] {
            gate.wait();
            for (int i = 0; i < 20; ++i) {
                // Seeds collide across writers: cache + recompute mix.
                ExecutionPlan plan =
                    basePlan(static_cast<std::uint64_t>(i % 8),
                             t ? "alpha" : "beta");
                plan.batchLanes = 1 + i % 4;
                const auto outcome = server.submitPlan(plan);
                ASSERT_TRUE(outcome.admitted())
                    << outcome.verdict.detail;
                std::uint64_t seen =
                    high_water.load(std::memory_order_relaxed);
                while (seen < outcome.requestId &&
                       !high_water.compare_exchange_weak(
                           seen, outcome.requestId)) {
                }
            }
        });
    }

    gate.open();
    for (auto &thread : writers)
        thread.join();
    const std::uint64_t completed = server.drain();
    done.store(true);
    for (auto &thread : readers)
        thread.join();
    EXPECT_EQ(completed, 40u);
    EXPECT_LE(server.resultCacheSize(), 4u);
}

} // namespace
