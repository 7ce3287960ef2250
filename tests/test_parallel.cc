/**
 * @file
 * Unit tests for the parallel runtime (common/parallel.h): pool
 * startup/shutdown, exception propagation out of parallelFor, nested
 * calls, the DTC_NUM_THREADS=1 fallback, range edge cases, and jobs
 * arriving while idle workers poll or after they blocked.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace dtc {
namespace {

TEST(ThreadPool, StartupAndShutdown)
{
    // Construct-use-destroy cycles must neither leak nor hang.
    for (int workers : {0, 1, 4}) {
        ThreadPool pool(workers);
        EXPECT_EQ(pool.workerCount(), workers);
        std::atomic<int64_t> sum{0};
        pool.run(100, workers + 1,
                 [&](int64_t i) { sum.fetch_add(i + 1); });
        EXPECT_EQ(sum.load(), 100 * 101 / 2);
    }
}

TEST(ThreadPool, EnsureWorkersGrows)
{
    ThreadPool pool(1);
    pool.ensureWorkers(3);
    EXPECT_EQ(pool.workerCount(), 3);
    pool.ensureWorkers(2); // never shrinks
    EXPECT_EQ(pool.workerCount(), 3);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.run(257, 5, [&](int64_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, JobsAfterIdleGapsRunEveryTaskOnce)
{
    // Idle workers poll for kSpinMs, then block: a job may arrive
    // while they poll, just as they give up, or after they blocked.
    ThreadPool pool(3);
    for (int gap_ms : {0, ThreadPool::kSpinMs / 5, ThreadPool::kSpinMs,
                       2 * ThreadPool::kSpinMs}) {
        for (int round = 0; round < 2; ++round) {
            std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
            std::vector<std::atomic<int>> hits(64);
            pool.run(64, 4, [&](int64_t i) { hits[i].fetch_add(1); });
            for (const auto& h : hits)
                EXPECT_EQ(h.load(), 1) << "gap " << gap_ms << " ms";
        }
    }
}

TEST(ThreadPool, ConcurrentSubmittersWhileWorkersPoll)
{
    ThreadPool pool(3);
    std::atomic<int64_t> sums[2] = {0, 0};
    auto submit = [&](int who) {
        for (int job = 0; job < 50; ++job)
            pool.run(16, 4, [&](int64_t i) { sums[who].fetch_add(i); });
    };
    std::thread other(submit, 1);
    submit(0);
    other.join();
    EXPECT_EQ(sums[0].load(), 50 * (15 * 16 / 2));
    EXPECT_EQ(sums[1].load(), 50 * (15 * 16 / 2));
}

TEST(ParallelFor, EmptyRangeNeverCallsBody)
{
    ScopedNumThreads t(4);
    bool called = false;
    parallelFor(5, 5, 1, [&](int64_t, int64_t) { called = true; });
    parallelFor(7, 3, 1, [&](int64_t, int64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElementRange)
{
    ScopedNumThreads t(4);
    int calls = 0;
    int64_t lo = -1, hi = -1;
    parallelFor(41, 42, 16, [&](int64_t b, int64_t e) {
        ++calls;
        lo = b;
        hi = e;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(lo, 41);
    EXPECT_EQ(hi, 42);
}

TEST(ParallelFor, ChunkDecompositionCoversRangeExactly)
{
    ScopedNumThreads t(8);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
        EXPECT_EQ(b % 7, 0);
        EXPECT_LE(e - b, 7);
        for (int64_t i = b; i < e; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionPropagatesToCaller)
{
    ScopedNumThreads t(8);
    EXPECT_THROW(
        parallelFor(0, 100, 1,
                    [&](int64_t b, int64_t) {
                        if (b == 37)
                            throw std::runtime_error("chunk 37 bad");
                    }),
        std::runtime_error);

    // The message of the (single) throwing chunk survives.
    try {
        parallelFor(0, 100, 1, [&](int64_t b, int64_t) {
            if (b == 37)
                throw std::runtime_error("chunk 37 bad");
        });
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 37 bad");
    }
}

TEST(ParallelFor, NestedCallsRunInlineAndComplete)
{
    ScopedNumThreads t(4);
    std::vector<int64_t> out(64, 0);
    parallelFor(0, 8, 1, [&](int64_t b_outer, int64_t) {
        // Inner parallelFor from a pool task must not deadlock; it
        // runs serially on the worker.
        parallelFor(0, 8, 2, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i)
                out[b_outer * 8 + i] = b_outer * 8 + i;
        });
    });
    for (int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ParallelFor, SingleThreadOverrideRunsOnCaller)
{
    ScopedNumThreads t(1);
    const std::thread::id self = std::this_thread::get_id();
    std::set<std::thread::id> ids;
    parallelFor(0, 100, 3, [&](int64_t, int64_t) {
        ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), self);
}

TEST(ParallelFor, EnvVarFallbackToOneThread)
{
    ASSERT_EQ(setenv("DTC_NUM_THREADS", "1", 1), 0);
    EXPECT_EQ(defaultNumThreads(), 1);
    EXPECT_EQ(currentNumThreads(), 1);

    const std::thread::id self = std::this_thread::get_id();
    std::set<std::thread::id> ids;
    parallelFor(0, 64, 4, [&](int64_t, int64_t) {
        ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), self);

    ASSERT_EQ(unsetenv("DTC_NUM_THREADS"), 0);
    EXPECT_GE(defaultNumThreads(), 1);
}

TEST(ParallelFor, EnvVarRespectedWhenNoOverride)
{
    ASSERT_EQ(setenv("DTC_NUM_THREADS", "3", 1), 0);
    EXPECT_EQ(currentNumThreads(), 3);
    {
        ScopedNumThreads t(7); // override beats the environment
        EXPECT_EQ(currentNumThreads(), 7);
    }
    EXPECT_EQ(currentNumThreads(), 3);
    ASSERT_EQ(unsetenv("DTC_NUM_THREADS"), 0);
}

TEST(ParallelReduce, OrderedMergeIsThreadCountInvariant)
{
    // Doubles chosen so that re-associating the fold changes the
    // rounding: identical bits across thread counts proves the chunk
    // structure and merge order are fixed.
    std::vector<double> xs(10007);
    double v = 1.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        v = v * 1.000001 + 1e-7;
        xs[i] = v;
    }
    auto sum_with = [&](int threads) {
        ScopedNumThreads t(threads);
        return parallelReduce(
            0, static_cast<int64_t>(xs.size()), 64, 0.0,
            [&](int64_t b, int64_t e) {
                double s = 0.0;
                for (int64_t i = b; i < e; ++i)
                    s += xs[static_cast<size_t>(i)];
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double serial = sum_with(1);
    EXPECT_EQ(serial, sum_with(2));
    EXPECT_EQ(serial, sum_with(8));
}

TEST(ParallelReduce, EmptyRangeReturnsInit)
{
    ScopedNumThreads t(4);
    const int64_t r = parallelReduce(
        3, 3, 1, int64_t{42},
        [](int64_t, int64_t) { return int64_t{1}; },
        [](int64_t a, int64_t b) { return a + b; });
    EXPECT_EQ(r, 42);
}

} // namespace
} // namespace dtc
