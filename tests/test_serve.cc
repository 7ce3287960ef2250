/**
 * @file
 * Tests for the serving layer (src/serve/): the content-hashed
 * prepared-kernel cache (hit/miss/eviction under a byte budget,
 * in-place mutation re-prepares), admission control, queued-deadline
 * expiry, batching bitwise equality, concurrent-storm linearizability
 * against the deterministic mode, and tuned-state reuse (the warm
 * path must never re-tune).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "obs/metrics.h"
#include "runtime/guard.h"
#include "runtime/runtime.h"
#include "serve/prepared_cache.h"
#include "serve/service.h"
#include "testing/oracle.h"

/**
 * While set, every over-aligned allocation of this test binary (the
 * storage of DenseMatrix, AlignedVector and AlignedArray) starts as
 * 0xFF bytes — a NaN in every float — instead of whatever the heap
 * hands back, which is often zero.  A buffer that is allocated without zeroing and then
 * not fully written shows up as NaN.
 */
std::atomic<bool> g_poisonAligned{false};

void*
operator new(std::size_t n, std::align_val_t al)
{
    const std::size_t align = static_cast<std::size_t>(al);
    const std::size_t rounded =
        std::max<std::size_t>(align, (n + align - 1) / align * align);
    void* p = std::aligned_alloc(align, rounded);
    if (!p)
        throw std::bad_alloc();
    if (g_poisonAligned.load(std::memory_order_relaxed))
        std::memset(p, 0xFF, n);
    return p;
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace dtc {
namespace {

/** Poisons aligned allocations for its lifetime (see above). */
class ScopedPoisonedAllocations
{
  public:
    ScopedPoisonedAllocations() { g_poisonAligned.store(true); }
    ~ScopedPoisonedAllocations() { g_poisonAligned.store(false); }
    ScopedPoisonedAllocations(const ScopedPoisonedAllocations&) = delete;
    ScopedPoisonedAllocations&
    operator=(const ScopedPoisonedAllocations&) = delete;
};

/** True when @p x and @p y hold the same shape and bits. */
bool
bitwiseEqual(const DenseMatrix& x, const DenseMatrix& y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
               0;
}

using serve::MatrixHandle;
using serve::PreparedCache;
using serve::ServeOptions;
using serve::SpmmService;
using serve::SubmitOptions;
using serve::SubmitResult;

class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        runtime::guard::setSampleFraction(0.0);
    }
    void
    TearDown() override
    {
        fault::disarmAll();
        runtime::guard::setSampleFraction(-1.0);
    }

    /** Deterministic-mode options with a roomy cache. */
    ServeOptions
    inlineOptions() const
    {
        ServeOptions so;
        so.deterministic = true;
        so.cacheBytes = int64_t{64} << 20;
        return so;
    }

    CostModel cm{ArchSpec::rtx4090()};
    Rng rng{4242};
};

TEST_F(ServeTest, CacheHitMissAndGauges)
{
    obs::metrics::reset();
    const CsrMatrix a = genUniform(256, 6.0, rng);
    PreparedCache cache(int64_t{64} << 20);

    auto e1 = cache.acquire(a, Precision::Fp32);
    EXPECT_EQ(obs::metrics::counterValue("serve.cache.misses"), 1u);
    auto e2 = cache.acquire(a, Precision::Fp32);
    EXPECT_EQ(obs::metrics::counterValue("serve.cache.hits"), 1u);
    EXPECT_EQ(e1.get(), e2.get()); // same contents -> same entry

    // Same contents, different precision: a distinct entry.
    auto e3 = cache.acquire(a, Precision::Tf32);
    EXPECT_EQ(obs::metrics::counterValue("serve.cache.misses"), 2u);
    EXPECT_NE(e1.get(), e3.get());
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.residentBytes(),
              2 * PreparedCache::entryBytes(a));
}

TEST_F(ServeTest, EvictionUnderByteBudget)
{
    obs::metrics::reset();
    const CsrMatrix a1 = genUniform(256, 6.0, rng);
    const CsrMatrix a2 = genUniform(300, 6.0, rng);

    // Budget fits one entry: inserting the second evicts the first.
    PreparedCache cache(PreparedCache::entryBytes(a2) + 1);
    auto e1 = cache.acquire(a1, Precision::Fp32);
    auto e2 = cache.acquire(a2, Precision::Fp32);
    EXPECT_EQ(obs::metrics::counterValue("serve.cache.evictions"),
              1u);
    EXPECT_EQ(cache.entries(), 1u);

    // The evicted shared_ptr stays alive for its holder.
    EXPECT_EQ(e1->a.rows(), a1.rows());

    // Re-acquiring the evicted matrix is a fresh miss.
    auto e1b = cache.acquire(a1, Precision::Fp32);
    EXPECT_NE(e1.get(), e1b.get());
    EXPECT_EQ(obs::metrics::counterValue("serve.cache.misses"), 3u);

    // A single over-budget entry still serves (never evicted).
    PreparedCache tiny(16);
    auto big = tiny.acquire(a1, Precision::Fp32);
    EXPECT_EQ(tiny.entries(), 1u);
    EXPECT_NE(big, nullptr);
}

TEST_F(ServeTest, InPlaceMutationRePrepares)
{
    obs::metrics::reset();
    CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 8, 1);

    SpmmService svc(inlineOptions(), &cm);
    const MatrixHandle h = svc.attach(a);
    const SubmitResult r1 = svc.run(h, b, Precision::Fp32);
    EXPECT_FALSE(r1.preparedCacheHit);
    const SubmitResult r2 = svc.run(h, b, Precision::Fp32);
    EXPECT_TRUE(r2.preparedCacheHit);
    const uint64_t tunes_before =
        obs::metrics::counterValue("tuner.tunes");

    // Mutating A in place changes the content hash: the next submit
    // must re-tune/re-prepare and compute against the new values.
    a.values()[0] += 1.0f;
    const SubmitResult r3 = svc.run(h, b, Precision::Fp32);
    EXPECT_FALSE(r3.preparedCacheHit);
    EXPECT_GT(obs::metrics::counterValue("tuner.tunes"),
              tunes_before);
    EXPECT_EQ(testing::judgeResult(a, b, r3.c, r3.report.precision,
                                   /*bit_exact=*/false,
                                   /*tolerance_safety=*/8.0),
              "");
    EXPECT_FALSE(r3.c == r1.c); // new contents, new result
}

TEST_F(ServeTest, WarmPathNeverReTunes)
{
    obs::metrics::reset();
    const CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 8, 2);

    SpmmService svc(inlineOptions(), &cm);
    const MatrixHandle h = svc.attach(a);
    svc.run(h, b, Precision::Fp32); // cold: tunes once
    const uint64_t tunes =
        obs::metrics::counterValue("tuner.tunes");
    const uint64_t evaluated = obs::metrics::counterValue(
        "tuner.candidates_evaluated");
    for (int i = 0; i < 4; ++i)
        svc.run(h, b, Precision::Fp32);
    EXPECT_EQ(obs::metrics::counterValue("tuner.tunes"), tunes);
    EXPECT_EQ(
        obs::metrics::counterValue("tuner.candidates_evaluated"),
        evaluated);
}

TEST_F(ServeTest, BatchIsBitwiseEqualToSoloRuns)
{
    const CsrMatrix a = genUniform(512, 8.0, rng);
    std::vector<DenseMatrix> panels;
    for (int i = 0; i < 5; ++i)
        panels.push_back(testing::makeDenseOperand(
            a.cols(), 8, 10 + static_cast<uint64_t>(i)));

    SpmmService svc(inlineOptions(), &cm);
    const MatrixHandle h = svc.attach(a);
    const std::vector<SubmitResult> batched =
        svc.runBatch(h, panels, Precision::Fp32);
    ASSERT_EQ(batched.size(), panels.size());
    for (const SubmitResult& r : batched)
        EXPECT_EQ(r.batchSize, 5);

    for (size_t i = 0; i < panels.size(); ++i) {
        const SubmitResult solo =
            svc.run(h, panels[i], Precision::Fp32);
        EXPECT_TRUE(batched[i].c == solo.c)
            << "panel " << i << " differs from its solo run";
    }
}

TEST_F(ServeTest, AdmissionControlRejectsTyped)
{
    const CsrMatrix a = genUniform(256, 6.0, rng);
    ServeOptions so;
    so.threads = 1;
    so.queueCapacity = 2;
    so.cacheBytes = int64_t{64} << 20;
    SpmmService svc(so, &cm);
    const MatrixHandle h = svc.attach(a);

    svc.pause(); // park the worker so the queue fills
    std::vector<std::future<SubmitResult>> futs;
    for (int i = 0; i < 2; ++i)
        futs.push_back(svc.submit(
            h, testing::makeDenseOperand(a.cols(), 8, 20),
            Precision::Fp32));
    try {
        svc.submit(h, testing::makeDenseOperand(a.cols(), 8, 21),
                   Precision::Fp32);
        FAIL() << "third submit should have been rejected";
    } catch (const DtcError& e) {
        EXPECT_EQ(e.code(), ErrorCode::ResourceExhausted);
    }
    EXPECT_GE(obs::metrics::counterValue("serve.rejected"), 1u);

    svc.resume();
    for (auto& f : futs)
        EXPECT_NO_THROW(f.get()); // queued work still completes
}

TEST_F(ServeTest, QueuedDeadlineExpiryIsTypedAndDoesNotPoison)
{
    const CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 8, 30);
    ServeOptions so;
    so.threads = 1;
    so.cacheBytes = int64_t{64} << 20;
    SpmmService svc(so, &cm);
    const MatrixHandle h = svc.attach(a);

    svc.pause();
    SubmitOptions sopt;
    sopt.deadlineMs = 1;
    auto doomed = svc.submit(h, b, Precision::Fp32, sopt);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    svc.resume();
    try {
        doomed.get();
        FAIL() << "queued request should have expired";
    } catch (const DtcError& e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
    }
    EXPECT_GE(obs::metrics::counterValue(
                  "serve.deadline_expired_queued"),
              1u);

    // The cache entry is not poisoned: the same A served fresh
    // (without a deadline) completes and verifies.
    const SubmitResult ok = svc.run(h, b, Precision::Fp32);
    EXPECT_EQ(testing::judgeResult(a, b, ok.c, ok.report.precision,
                                   /*bit_exact=*/false,
                                   /*tolerance_safety=*/8.0),
              "");
}

TEST_F(ServeTest, ConcurrentStormMatchesDeterministicMode)
{
    const CsrMatrix a = genUniform(512, 8.0, rng);
    const int kClients = 4;
    const int kPerClient = 6;

    // Reference results from the deterministic inline mode.
    std::vector<DenseMatrix> want;
    {
        SpmmService ref(inlineOptions(), &cm);
        const MatrixHandle h = ref.attach(a);
        for (int i = 0; i < kClients * kPerClient; ++i)
            want.push_back(
                ref.run(h,
                        testing::makeDenseOperand(
                            a.cols(), 8,
                            static_cast<uint64_t>(100 + i)),
                        Precision::Fp32)
                    .c);
    }

    // The threaded storm must produce bitwise-identical results for
    // every request (batching is column-independent) regardless of
    // interleaving.
    const uint64_t tunes_before =
        obs::metrics::counterValue("tuner.tunes");
    ServeOptions so;
    so.threads = 3;
    so.queueCapacity = 256;
    so.cacheBytes = int64_t{64} << 20;
    SpmmService svc(so, &cm);
    const MatrixHandle h = svc.attach(a);
    std::vector<std::future<SubmitResult>> futs(
        static_cast<size_t>(kClients * kPerClient));
    std::vector<std::thread> clients;
    std::atomic<int> rejected{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const int id = c * kPerClient + i;
                try {
                    futs[static_cast<size_t>(id)] = svc.submit(
                        h,
                        testing::makeDenseOperand(
                            a.cols(), 8,
                            static_cast<uint64_t>(100 + id)),
                        Precision::Fp32);
                } catch (const DtcError&) {
                    rejected.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    EXPECT_EQ(rejected.load(), 0); // capacity 256 admits everything

    for (size_t i = 0; i < futs.size(); ++i) {
        const SubmitResult r = futs[i].get();
        EXPECT_TRUE(r.c == want[i]) << "request " << i
                                    << " differs from deterministic";
    }
    // Exactly one tune across the whole storm: every request after
    // the first reused the prepared entry.
    EXPECT_EQ(obs::metrics::counterValue("tuner.tunes"),
              tunes_before + 1);
}

TEST_F(ServeTest, ShapeMismatchThrowsInvalidInput)
{
    const CsrMatrix a = genUniform(64, 4.0, rng);
    SpmmService svc(inlineOptions(), &cm);
    const MatrixHandle h = svc.attach(a);
    DenseMatrix bad(a.cols() + 1, 4);
    try {
        svc.submit(h, std::move(bad), Precision::Fp32);
        FAIL() << "shape mismatch should throw";
    } catch (const DtcError& e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidInput);
    }
}

TEST_F(ServeTest, BatchOverGarbageBuffersEqualsSoloRuns)
{
    // executeBatch allocates wide B, wide C and each member's result
    // without zeroing them, executeSingle its result, and
    // Runtime::run(b) its C: pack, compute() and split must write
    // every element.  Poisoned allocations make any element they miss
    // a NaN, so the slices would no longer equal the solo runs.
    {
        ScopedPoisonedAllocations poison;
        const DenseMatrix probe = DenseMatrix::uninitialized(4, 4);
        uint32_t bits;
        std::memcpy(&bits, probe.data(), sizeof(bits));
        ASSERT_EQ(bits, 0xFFFFFFFFu) << "poisoning is not in effect";
    }
    // 1000 rows: the last row window of the DTC path is partial.
    const CsrMatrix a = genCommunity(1000, 8, 10.0, 0.85, rng);
    std::vector<DenseMatrix> panels;
    for (int i = 0; i < 4; ++i)
        panels.push_back(testing::makeDenseOperand(
            a.cols(), 5 + i, 20 + static_cast<uint64_t>(i)));
    for (Precision p : {Precision::Tf32, Precision::Fp32}) {
        SCOPED_TRACE(precisionName(p));
        SpmmService svc(inlineOptions(), &cm);
        const MatrixHandle h = svc.attach(a);
        std::vector<DenseMatrix> solo;
        for (const DenseMatrix& b : panels)
            solo.push_back(svc.run(h, b, p).c);

        ScopedPoisonedAllocations poison;
        const std::vector<SubmitResult> batched =
            svc.runBatch(h, panels, p);
        ASSERT_EQ(batched.size(), panels.size());
        for (size_t i = 0; i < panels.size(); ++i) {
            EXPECT_EQ(batched[i].batchSize, 4);
            EXPECT_TRUE(bitwiseEqual(batched[i].c, solo[i]))
                << "panel " << i << " differs from its solo run";
        }
        EXPECT_TRUE(bitwiseEqual(svc.run(h, panels[0], p).c, solo[0]));

        runtime::RuntimeOptions ropt;
        ropt.precision = p;
        runtime::Runtime rt(a, cm, ropt);
        EXPECT_TRUE(bitwiseEqual(rt.run(panels[1]), solo[1]));
    }
}

TEST_F(ServeTest, Fp32EntryTunesOnlyFp32Kernels)
{
    // The entry tunes at its own precision: DTC refuses Fp32 and
    // TC-GNN cannot express it, so both are refused in the ranking
    // and neither shows up as a failure of the first request.
    obs::metrics::reset();
    const CsrMatrix a = genCommunity(1024, 8, 12.0, 0.85, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 16, 3);
    SpmmService svc(inlineOptions(), &cm);
    const MatrixHandle h = svc.attach(a);
    const SubmitResult r = svc.run(h, b, Precision::Fp32);
    for (const runtime::RunAttempt& f : r.report.failures)
        ADD_FAILURE() << f.kernel << ": " << f.detail;
    EXPECT_EQ(r.report.precision, Precision::Fp32);
    EXPECT_EQ(obs::metrics::counterValue("metcf.builds"), 0u);
    EXPECT_EQ(obs::metrics::counterValue("tuner.refusals"), 2u);
    EXPECT_EQ(
        obs::metrics::counterValue("runtime.failures.DTC-SpMM"), 0u);
}

} // namespace
} // namespace dtc
