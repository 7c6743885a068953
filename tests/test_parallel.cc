/**
 * @file
 * Tests for the shared threading runtime: the SPSC mailbox ring
 * (fill/drain/FIFO ordering, single-threaded and under true
 * producer/consumer concurrency), parallelFor, the thread-budget
 * helper, and the persistent WorkerPool's barrier semantics.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/spsc.h"

using namespace qprac;

// --- SpscRing ----------------------------------------------------------

TEST(SpscRing, FillDrainPreservesFifoOrder)
{
    SpscRing<int> ring(8);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(ring.push(int(i)));
    EXPECT_EQ(ring.size(), 8u);
    int v = -1;
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(ring.pop(&v));
        EXPECT_EQ(v, i);
    }
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.pop(&v));
}

TEST(SpscRing, PushFailsOnlyWhenFullAndRecoversAfterPop)
{
    SpscRing<int> ring(4); // rounded to a power of two (already is)
    ASSERT_EQ(ring.capacity(), 4u);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.push(int(i)));
    EXPECT_FALSE(ring.push(99));
    int v = 0;
    ASSERT_TRUE(ring.pop(&v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(ring.push(99));
    // Drain: 1, 2, 3, 99 — the failed push left no trace.
    std::vector<int> got;
    while (ring.pop(&v))
        got.push_back(v);
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 99}));
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo)
{
    SpscRing<int> ring(5);
    EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, PeekDoesNotConsume)
{
    SpscRing<int> ring(4);
    ASSERT_TRUE(ring.push(7));
    ASSERT_NE(ring.peek(), nullptr);
    EXPECT_EQ(*ring.peek(), 7);
    EXPECT_EQ(ring.size(), 1u);
    ring.popFront();
    EXPECT_EQ(ring.peek(), nullptr);
}

TEST(SpscRing, WrapsAroundManyTimes)
{
    SpscRing<int> ring(4);
    int expect = 0;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(ring.push(int(i)));
        if (i % 3 == 0)
            continue; // let occupancy oscillate across the wrap point
        int v = -1;
        ASSERT_TRUE(ring.pop(&v));
        EXPECT_EQ(v, expect++);
        if (ring.size() >= 3) {
            ASSERT_TRUE(ring.pop(&v));
            EXPECT_EQ(v, expect++);
        }
    }
    int v = -1;
    while (ring.pop(&v))
        EXPECT_EQ(v, expect++);
    EXPECT_EQ(expect, 1000);
}

TEST(SpscRing, StagedPushIgnoresConcurrentConsumerProgress)
{
    // pushStaged admits against the consumer position captured at the
    // last syncProducer(), not the live one — the property the
    // pipelined engine's admission determinism rests on.
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.pushStaged(int(i)));
    EXPECT_FALSE(ring.pushStaged(99)); // staged-full
    int v = -1;
    ASSERT_TRUE(ring.pop(&v)); // consumer frees a slot...
    EXPECT_FALSE(ring.pushStaged(99)); // ...but the staged view holds
    ring.syncProducer();
    EXPECT_TRUE(ring.pushStaged(99)); // refreshed at the barrier
    std::vector<int> got;
    while (ring.pop(&v))
        got.push_back(v);
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 99}));
}

TEST(SpscRing, StagedAndPlainPushInterleaveConsistently)
{
    // Both forms advance the same tail cursor, so a producer may mix
    // them; only the admission test differs (live vs staged head).
    SpscRing<int> ring(4);
    ASSERT_TRUE(ring.pushStaged(0));
    ASSERT_TRUE(ring.push(1)); // syncs, sees 2 slots left
    ASSERT_TRUE(ring.pushStaged(2));
    ASSERT_TRUE(ring.pushStaged(3));
    EXPECT_FALSE(ring.pushStaged(99));
    int v = -1;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.pop(&v));
        EXPECT_EQ(v, i);
    }
}

TEST(SpscRing, ConcurrentProducerConsumerKeepsOrder)
{
    // True concurrency (the engine itself only needs phase-separated
    // access, but the primitive guarantees more — and this is the test
    // the TSan CI job leans on).
    constexpr int kItems = 200'000;
    SpscRing<int> ring(1024);
    std::vector<int> got;
    got.reserve(kItems);
    std::thread consumer([&] {
        int v = -1;
        while (static_cast<int>(got.size()) < kItems)
            if (ring.pop(&v))
                got.push_back(v);
    });
    for (int i = 0; i < kItems;) {
        if (ring.push(int(i)))
            ++i;
    }
    consumer.join();
    ASSERT_EQ(static_cast<int>(got.size()), kItems);
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

// --- parallelFor / thread budget ---------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 4, 9}) {
        std::vector<std::atomic<int>> hits(101);
        for (auto& h : hits)
            h = 0;
        parallelFor(hits.size(), threads,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const auto& h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, ZeroCountIsANoOp)
{
    int calls = 0;
    parallelFor(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadBudget, SplitsTotalAcrossOuterParallelism)
{
    // A sweep of 8 points on an 8-thread budget: 1 thread per point.
    EXPECT_EQ(innerThreadBudget(8, 8), 1);
    // 2 concurrent points on 8 threads: 4 each.
    EXPECT_EQ(innerThreadBudget(8, 2), 4);
    // A single run keeps the whole budget.
    EXPECT_EQ(innerThreadBudget(8, 1), 8);
    // Outer fan-out wider than the budget still grants one thread.
    EXPECT_EQ(innerThreadBudget(4, 100), 1);
    // Degenerate budgets floor at one.
    EXPECT_EQ(innerThreadBudget(0, 5), 1);
    EXPECT_EQ(innerThreadBudget(1, 3), 1);
}

// --- WorkerPool ---------------------------------------------------------

TEST(WorkerPool, RunIsAFullBarrier)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.degree(), 4);
    std::vector<std::atomic<int>> hits(16);
    for (int round = 0; round < 50; ++round) {
        for (auto& h : hits)
            h = 0;
        pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
        // run() returned: every index must have executed exactly once.
        for (const auto& h : hits)
            ASSERT_EQ(h.load(), 1);
    }
}

TEST(WorkerPool, DegreeOneRunsInline)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.degree(), 1);
    std::thread::id me = std::this_thread::get_id();
    std::vector<std::thread::id> ran(4);
    pool.run(ran.size(), [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    for (const auto& id : ran)
        EXPECT_EQ(id, me);
}

TEST(WorkerPool, SumAcrossManyDispatches)
{
    // Back-to-back dispatches exercise both the spin fast path and the
    // sleep/wake slow path.
    WorkerPool pool(3);
    std::atomic<long long> sum{0};
    long long want = 0;
    for (int round = 0; round < 200; ++round) {
        pool.run(8, [&](std::size_t i) {
            sum.fetch_add(static_cast<long long>(i) + round);
        });
        want += 8 * round + 28;
    }
    EXPECT_EQ(sum.load(), want);
}

TEST(WorkerPool, DispatchOverlapsCallerWorkUntilWait)
{
    // dispatch()/wait() is the pipelined engine's overlap primitive:
    // workers chew on the tasks while the caller does its own work, and
    // wait() is the full barrier (the caller helps drain).
    WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(32);
    // dispatch() borrows the function until wait() returns, so it must
    // be a named object, not a temporary.
    const std::function<void(std::size_t)> job = [&](std::size_t i) {
        hits[i].fetch_add(1);
    };
    for (int round = 0; round < 50; ++round) {
        for (auto& h : hits)
            h = 0;
        std::atomic<int> caller_work{0};
        pool.dispatch(hits.size(), job);
        // Caller-side work the barrier must not depend on.
        for (int i = 0; i < 100; ++i)
            caller_work.fetch_add(1);
        pool.wait();
        EXPECT_EQ(caller_work.load(), 100);
        for (const auto& h : hits)
            ASSERT_EQ(h.load(), 1);
    }
}

TEST(WorkerPool, DispatchWithoutWorkersRunsInline)
{
    WorkerPool pool(1);
    std::thread::id me = std::this_thread::get_id();
    std::vector<std::thread::id> ran(4);
    pool.dispatch(ran.size(), [&](std::size_t i) {
        ran[i] = std::this_thread::get_id();
    });
    pool.wait(); // no-op: degree-1 dispatch already completed inline
    for (const auto& id : ran)
        EXPECT_EQ(id, me);
}

TEST(WorkerPool, ZeroCountDispatchIsANoOp)
{
    WorkerPool pool(3);
    int calls = 0;
    pool.dispatch(0, [&](std::size_t) { ++calls; });
    pool.wait();
    EXPECT_EQ(calls, 0);
    pool.run(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}
