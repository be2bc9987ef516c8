/**
 * @file
 * Unit tests for the thread pool.
 */

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "threading/thread_pool.hpp"

namespace {

using namespace stats::threading;

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, AtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1);
    std::atomic<bool> ran{false};
    pool.submit([&] { ran.store(true); });
    pool.waitIdle();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, JobsMaySubmitJobs)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&] {
        count.fetch_add(1);
        pool.submit([&] { count.fetch_add(1); });
    });
    // waitIdle must observe the nested job too: the outer job is
    // active while it submits, so the pool never looks idle between.
    pool.waitIdle();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, BlockingJobCannotStrandItsOwnSubmission)
{
    // A job that submits work and then *blocks until that work runs*
    // must make progress on any pool with a second worker. The
    // worker-side fast path parks the first nested submission in the
    // owner's next-task slot, which siblings normally never look at;
    // this pins the desperate slot-steal that keeps the pattern live
    // (the owner cannot run the slot — it is busy blocking on it).
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int round = 0; round < 50; ++round) {
        pool.submit([&pool, &ran, round] {
            const int want = 3 * (round + 1);
            pool.submit([&ran] { ran.fetch_add(1); });
            pool.submit([&ran] { ran.fetch_add(1); });
            pool.submit([&ran] { ran.fetch_add(1); });
            while (ran.load() < want)
                std::this_thread::yield();
        });
        pool.waitIdle();
        ASSERT_EQ(ran.load(), 3 * (round + 1)) << "round " << round;
    }
}

TEST(ThreadPool, WorkerSubmissionsRunInSubmissionOrder)
{
    // Every submission, from a worker too, joins the one shared FIFO
    // queue: the lone worker runs a job's spawns in the order the job
    // made them, not newest first.
    ThreadPool pool(1);
    std::string order;
    pool.submit([&pool, &order] {
        for (char name : {'A', 'B', 'C', 'D'})
            pool.submit([&order, name] { order += name; });
    });
    pool.waitIdle();
    EXPECT_EQ(order, "ABCD");
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.waitIdle();
    SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                count.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DestructorDrainsNestedSpawns)
{
    // Drain-on-shutdown covers jobs spawned by running jobs: the
    // destructor may only join once the whole tree has executed.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 10; ++i) {
            pool.submit([&count, &pool] {
                count.fetch_add(1);
                pool.submit([&count] { count.fetch_add(1); });
            });
        }
    }
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, SubmitBatchRunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<PoolTask> batch;
    for (int i = 0; i < 64; ++i) {
        PoolTask task;
        task.run = [&count](bool cancelled) {
            if (!cancelled)
                count.fetch_add(1);
        };
        batch.push_back(std::move(task));
    }
    pool.submitBatch(std::move(batch));
    pool.waitIdle();
    EXPECT_EQ(count.load(), 64);
    EXPECT_EQ(pool.stats().executed, 64u);
}

TEST(ThreadPool, CancelledTaskIsReportedCancelled)
{
    ThreadPool pool(2);
    auto flag = std::make_shared<std::atomic<bool>>(true);
    std::atomic<int> ran{0};
    std::atomic<int> cancelled{0};
    PoolTask task;
    task.cancel = flag;
    task.run = [&](bool was_cancelled) {
        (was_cancelled ? cancelled : ran).fetch_add(1);
    };
    pool.submit(std::move(task));
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(cancelled.load(), 1);
    EXPECT_EQ(pool.stats().cancelled, 1u);
}

TEST(ThreadPool, MoveOnlyJobsAreAccepted)
{
    // The submit path must be move-only end to end: a job capturing a
    // unique_ptr would not compile against a copy-requiring wrapper.
    ThreadPool pool(2);
    auto payload = std::make_unique<int>(41);
    std::atomic<int> seen{0};
    pool.submit([payload = std::move(payload), &seen] {
        seen.store(*payload + 1);
    });
    pool.waitIdle();
    EXPECT_EQ(seen.load(), 42);
}

TEST(ThreadPool, StatsCountSubmittedAndExecuted)
{
    ThreadPool pool(2);
    for (int i = 0; i < 25; ++i)
        pool.submit([] {});
    pool.waitIdle();
    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.submitted, 25u);
    EXPECT_EQ(stats.executed, 25u);
    EXPECT_EQ(stats.cancelled, 0u);
}

} // namespace
