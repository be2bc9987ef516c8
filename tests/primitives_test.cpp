/**
 * @file
 * Tests of the low-level synchronization primitives: the bounded
 * MPMC queue.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "threading/primitives.hpp"

namespace {

using namespace stats::threading;

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo)
{
    MpmcBoundedQueue<int> queue(5);
    EXPECT_EQ(queue.capacity(), 8u);
    MpmcBoundedQueue<int> tiny(1);
    EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(MpmcQueue, FifoSingleThreaded)
{
    MpmcBoundedQueue<int> queue(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    EXPECT_FALSE(queue.tryPush(99)); // Full.
    for (int i = 0; i < 8; ++i) {
        const auto value = queue.tryPop();
        ASSERT_TRUE(value.has_value());
        EXPECT_EQ(*value, i);
    }
    EXPECT_FALSE(queue.tryPop().has_value()); // Empty.
}

TEST(MpmcQueue, ReusableAfterDrain)
{
    MpmcBoundedQueue<int> queue(4);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(queue.tryPush(round * 4 + i));
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(*queue.tryPop(), round * 4 + i);
    }
}

TEST(MpmcQueue, ConcurrentProducersAndConsumers)
{
    constexpr int kPerProducer = 2000;
    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    MpmcBoundedQueue<int> queue(64);
    std::atomic<long long> consumed_sum{0};
    std::atomic<int> consumed_count{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int value = p * kPerProducer + i;
                while (!queue.tryPush(value))
                    std::this_thread::yield();
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            for (;;) {
                if (consumed_count.load() >= kPerProducer * kProducers)
                    return;
                const auto value = queue.tryPop();
                if (!value) {
                    std::this_thread::yield();
                    continue;
                }
                consumed_sum.fetch_add(*value);
                consumed_count.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    const long long n = kPerProducer * kProducers;
    EXPECT_EQ(consumed_count.load(), n);
    EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueue, MovesValues)
{
    MpmcBoundedQueue<std::unique_ptr<int>> queue(4);
    EXPECT_TRUE(queue.tryPush(std::make_unique<int>(7)));
    auto out = queue.tryPop();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(**out, 7);
}

} // namespace
