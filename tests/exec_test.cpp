/**
 * @file
 * Tests for the executor implementations: both must run every task,
 * serialize completion callbacks, honor cancellation, and support
 * submission from callbacks — the contract the speculation engine
 * relies on.
 */

#include <atomic>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "exec/sim_executor.hpp"
#include "exec/thread_executor.hpp"

namespace {

using namespace stats;

std::unique_ptr<exec::Executor>
makeExecutor(bool simulated, int threads)
{
    if (simulated) {
        sim::MachineConfig config;
        return std::make_unique<exec::SimExecutor>(config, threads);
    }
    return std::make_unique<exec::ThreadExecutor>(threads);
}

class ExecutorContract : public ::testing::TestWithParam<bool>
{
};

TEST_P(ExecutorContract, RunsTasksAndCallbacks)
{
    auto ex = makeExecutor(GetParam(), 4);
    std::atomic<int> ran{0};
    int completed = 0; // Callbacks are serialized: plain int is safe.
    for (int i = 0; i < 32; ++i) {
        exec::Task task;
        task.run = [&ran] {
            ran.fetch_add(1);
            return exec::Work{1e-6, 0.0};
        };
        task.onComplete = [&completed] { ++completed; };
        ex->submit(std::move(task));
    }
    ex->drain();
    EXPECT_EQ(ran.load(), 32);
    EXPECT_EQ(completed, 32);
}

TEST_P(ExecutorContract, CallbackMaySubmit)
{
    auto ex = makeExecutor(GetParam(), 2);
    int depth = 0;
    std::function<void()> chain = [&] {
        if (depth >= 4)
            return;
        ++depth;
        exec::Task task;
        task.run = [] { return exec::Work{1e-6, 0.0}; };
        task.onComplete = chain;
        ex->submit(std::move(task));
    };
    chain();
    ex->drain();
    EXPECT_EQ(depth, 4);
}

TEST_P(ExecutorContract, CancelledTaskSkipsRunButCompletes)
{
    auto ex = makeExecutor(GetParam(), 1);
    std::atomic<bool> ran{false};
    bool completed = false;
    exec::Task task;
    task.cancel = exec::makeCancelToken();
    task.cancel->store(true);
    task.run = [&] {
        ran.store(true);
        return exec::Work{1.0, 0.0};
    };
    task.onComplete = [&] { completed = true; };
    ex->submit(std::move(task));
    ex->drain();
    EXPECT_FALSE(ran.load());
    EXPECT_TRUE(completed);
}

TEST_P(ExecutorContract, ConcurrencyReportsThreads)
{
    auto ex = makeExecutor(GetParam(), 3);
    EXPECT_EQ(ex->concurrency(), 3);
}

TEST_P(ExecutorContract, DrainIsIdempotent)
{
    auto ex = makeExecutor(GetParam(), 2);
    exec::Task task;
    task.run = [] { return exec::Work{1e-6, 0.0}; };
    ex->submit(std::move(task));
    ex->drain();
    ex->drain();
    SUCCEED();
}

TEST_P(ExecutorContract, SubmitBatchRunsEveryTaskAndCallback)
{
    auto ex = makeExecutor(GetParam(), 4);
    std::atomic<int> ran{0};
    int completed = 0; // Callbacks are serialized: plain int is safe.
    std::vector<exec::Task> batch;
    for (int i = 0; i < 16; ++i) {
        exec::Task task;
        task.run = [&ran] {
            ran.fetch_add(1);
            return exec::Work{1e-6, 0.0};
        };
        task.onComplete = [&completed] { ++completed; };
        batch.push_back(std::move(task));
    }
    ex->submitBatch(std::move(batch));
    ex->drain();
    EXPECT_EQ(ran.load(), 16);
    EXPECT_EQ(completed, 16);
}

INSTANTIATE_TEST_SUITE_P(RealAndSimulated, ExecutorContract,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "Simulated" : "Real";
                         });

/**
 * From inside a completion callback (so every task is queued before
 * any runs), submit tasks tagged with groups 5, 2, 4 and one untagged
 * task; return the groups in the order their bodies ran (-1 for the
 * untagged one).
 */
std::vector<int>
dispatchOrder(exec::Executor &ex)
{
    std::vector<int> order; // One worker: bodies never overlap.
    exec::Task bootstrap;
    bootstrap.run = [] { return exec::Work{0.0, 0.0}; };
    bootstrap.onComplete = [&ex, &order] {
        for (const int group : {5, 2, 4, -1}) {
            exec::Task task;
            task.tag.group = group;
            task.run = [&order, group] {
                order.push_back(group);
                return exec::Work{1e-6, 0.0};
            };
            ex.submit(std::move(task));
        }
    };
    ex.submit(std::move(bootstrap));
    ex.drain();
    return order;
}

TEST(ThreadExecutorDispatch, LowestGroupRunsFirst)
{
    exec::ThreadExecutor ex(1);
    EXPECT_EQ(dispatchOrder(ex), (std::vector<int>{-1, 2, 4, 5}));
}

TEST(SimExecutor, DispatchesInSubmissionOrder)
{
    exec::SimExecutor ex(sim::MachineConfig{}, 1);
    EXPECT_EQ(dispatchOrder(ex), (std::vector<int>{5, 2, 4, -1}));
}

TEST(SimExecutor, VirtualTimeAdvances)
{
    exec::SimExecutor ex(sim::MachineConfig{}, 1);
    exec::Task task;
    task.run = [] { return exec::Work{2.0, 0.0}; };
    ex.submit(std::move(task));
    ex.drain();
    EXPECT_GE(ex.now(), 2.0);
    EXPECT_LT(ex.now(), 2.01);
}

} // namespace
