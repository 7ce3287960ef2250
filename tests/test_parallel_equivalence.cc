/**
 * @file
 * Parallel-vs-serial equivalence suite: every registered kernel must
 * produce bitwise-identical compute() output and identical cost()
 * event tallies with threads=1 and threads=8, across a sweep of
 * matrix shapes; format conversions and TCA reordering must be
 * thread-count-invariant too.  Plus a randomized property test that
 * the parallel CSR -> SGT -> ME-TCF conversion roundtrips exactly.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "formats/me_tcf.h"
#include "formats/sgt.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "kernels/kernel.h"
#include "matrix/coo.h"
#include "reorder/tca.h"

namespace dtc {
namespace {

constexpr int kParallelThreads = 8;
constexpr int64_t kDenseCols = 16;

/** The ISSUE's shape sweep: name + matrix. */
std::vector<std::pair<std::string, CsrMatrix>>
sweepMatrices()
{
    std::vector<std::pair<std::string, CsrMatrix>> out;
    out.emplace_back("empty-32x32", CsrMatrix(32, 32));

    CooMatrix onerow(64, 64);
    for (int32_t c = 0; c < 64; c += 3)
        onerow.add(0, c, 1.0f + static_cast<float>(c));
    out.emplace_back("single-populated-row",
                     CsrMatrix::fromCoo(onerow));

    CooMatrix wide(1, 256);
    for (int32_t c = 1; c < 256; c += 7)
        wide.add(0, c, 0.5f * static_cast<float>(c));
    out.emplace_back("1xN", CsrMatrix::fromCoo(wide));

    Rng rng(2024);
    out.emplace_back("dense-ish",
                     genBlockDiagonal(64, 16, 0.9, rng));
    out.emplace_back("sparse-95pct", genUniform(512, 4.0, rng));
    // > 10 windows of 16 rows.
    out.emplace_back("tall-128-windows",
                     genCommunity(2048, 8, 16.0, 0.85, rng));
    return out;
}

std::vector<KernelKind>
allKernelKinds()
{
    return {KernelKind::CuSparse,      KernelKind::Tcgnn,
            KernelKind::Dtc,           KernelKind::DtcBase,
            KernelKind::DtcBalanced,   KernelKind::Sputnik,
            KernelKind::SparseTir,     KernelKind::BlockSpmm32,
            KernelKind::BlockSpmm64,   KernelKind::VectorSparse4,
            KernelKind::VectorSparse8, KernelKind::FlashLlmV1,
            KernelKind::FlashLlmV2,    KernelKind::SparTA};
}

struct KernelRun
{
    bool supported = false;
    DenseMatrix c;
    LaunchResult cost;
};

/** Full prepare + compute + cost pipeline at a fixed thread count. */
KernelRun
runKernel(KernelKind kind, const CsrMatrix& a, int threads)
{
    ScopedNumThreads t(threads);
    KernelRun run;
    auto kernel = makeKernel(kind);
    if (!kernel->prepare(a).empty())
        return run;
    run.supported = true;

    Rng rng(99);
    DenseMatrix b(a.cols(), kDenseCols);
    b.fillRandom(rng);
    run.c = DenseMatrix(a.rows(), kDenseCols);
    kernel->compute(b, run.c);

    CostModel cm(ArchSpec::rtx4090());
    run.cost = kernel->cost(kDenseCols, cm);
    return run;
}

void
expectBitwiseEqual(const DenseMatrix& a, const DenseMatrix& b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(float)),
              0);
}

void
expectIdenticalCost(const LaunchResult& a, const LaunchResult& b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.supported, b.supported);
    EXPECT_EQ(a.timeMs, b.timeMs);
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.smBusyCycles, b.smBusyCycles);
    EXPECT_EQ(a.tcUtilPct, b.tcUtilPct);
    EXPECT_EQ(a.totalHmma, b.totalHmma);
    EXPECT_EQ(a.totalImad, b.totalImad);
    EXPECT_EQ(a.totalFma, b.totalFma);
    EXPECT_EQ(a.totalLdg, b.totalLdg);
    EXPECT_EQ(a.totalSts, b.totalSts);
    EXPECT_EQ(a.imadPerHmma, b.imadPerHmma);
    EXPECT_EQ(a.l2HitRate, b.l2HitRate);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.flops, b.flops);
}

TEST(ParallelEquivalence, AllKernelsAllShapes)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : allKernelKinds()) {
            SCOPED_TRACE(std::string(kernelKindName(kind)) + " on " +
                         mat_name);
            KernelRun serial = runKernel(kind, m, 1);
            KernelRun parallel = runKernel(kind, m, kParallelThreads);
            ASSERT_EQ(serial.supported, parallel.supported);
            if (!serial.supported)
                continue; // kernel refuses this shape either way
            expectBitwiseEqual(serial.c, parallel.c);
            expectIdenticalCost(serial.cost, parallel.cost);
        }
    }
}

TEST(ParallelEquivalence, SgtCondensationArrays)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        SCOPED_TRACE(mat_name);
        SgtResult s1, s8;
        {
            ScopedNumThreads t(1);
            s1 = sgtCondense(m);
        }
        {
            ScopedNumThreads t(kParallelThreads);
            s8 = sgtCondense(m);
        }
        EXPECT_EQ(s1.numWindows, s8.numWindows);
        EXPECT_EQ(s1.numTcBlocks, s8.numTcBlocks);
        EXPECT_EQ(s1.windowColOffset, s8.windowColOffset);
        EXPECT_EQ(s1.windowCols, s8.windowCols);
        EXPECT_EQ(s1.blocksPerWindow, s8.blocksPerWindow);
        EXPECT_EQ(s1.meanNnzTc, s8.meanNnzTc);
    }
}

TEST(ParallelEquivalence, MeTcfConversionArrays)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        SCOPED_TRACE(mat_name);
        MeTcfMatrix t1, t8;
        {
            ScopedNumThreads t(1);
            t1 = MeTcfMatrix::build(m);
        }
        {
            ScopedNumThreads t(kParallelThreads);
            t8 = MeTcfMatrix::build(m);
        }
        EXPECT_EQ(t1.rowWindowOffset(), t8.rowWindowOffset());
        EXPECT_EQ(t1.tcOffset(), t8.tcOffset());
        EXPECT_EQ(t1.tcLocalId(), t8.tcLocalId());
        EXPECT_EQ(t1.sparseAtoB(), t8.sparseAtoB());
        EXPECT_EQ(t1.values(), t8.values());
    }
}

TEST(ParallelEquivalence, TcaReorderPermutation)
{
    Rng rng(7);
    CsrMatrix m = shuffleLabels(
        genCommunity(1024, 16, 20.0, 0.9, rng), rng);
    TcaParams params;
    TcaResult r1, r8;
    {
        ScopedNumThreads t(1);
        r1 = tcaReorder(m, params);
    }
    {
        ScopedNumThreads t(kParallelThreads);
        r8 = tcaReorder(m, params);
    }
    EXPECT_EQ(r1.permutation, r8.permutation);
    EXPECT_EQ(r1.numClusters, r8.numClusters);
    EXPECT_EQ(r1.numSuperClusters, r8.numSuperClusters);
}

/** FNV-1a over a TCA result's permutation and cluster counts. */
uint64_t
tcaHash(const TcaResult& r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (int32_t p : r.permutation)
        mix(static_cast<uint32_t>(p));
    mix(static_cast<uint64_t>(r.numClusters));
    mix(static_cast<uint64_t>(r.numSuperClusters));
    mix(static_cast<uint64_t>(r.candidatePairsH1));
    mix(static_cast<uint64_t>(r.candidatePairsH2));
    return h;
}

TEST(ParallelEquivalence, TcaReorderMatchesRecordedHash)
{
    // Enough Hierarchy-I candidate pairs for several pair-scoring
    // chunks, so a chunk that scored or queued its pairs out of order
    // would move the permutation.  The hash was recorded with the
    // serial pair-scoring loop; any thread count must reproduce it.
    Rng rng(11);
    const CsrMatrix m = shuffleLabels(
        genCommunity(4096, 24, 24.0, 0.85, rng), rng);
    for (int threads : {1, 4, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ScopedNumThreads t(threads);
        const TcaResult r = tcaReorder(m, TcaParams{});
        EXPECT_GE(r.candidatePairsH1, 3 * kTcaPairGrain);
        EXPECT_EQ(r.numClusters, 645);
        EXPECT_EQ(r.numSuperClusters, 208);
        EXPECT_EQ(tcaHash(r), 0x84f3589529cd5f25ull);
    }
}

/**
 * Randomized roundtrip property: random CSR -> SGT/ME-TCF (parallel
 * conversion path) -> reconstructed CSR equals the input, ~100 cases
 * with per-case forked RNG streams (no shared mutable RNG).
 */
TEST(ParallelEquivalence, RandomizedFormatRoundtrip)
{
    const Rng master(0xF00Dull);
    ScopedNumThreads t(kParallelThreads);
    for (uint64_t i = 0; i < 100; ++i) {
        SCOPED_TRACE("case " + std::to_string(i));
        Rng rng = master.forkAt(i);
        CsrMatrix m;
        const int64_t n = rng.nextInt(1, 300);
        switch (i % 5) {
          case 0:
            m = genUniform(n, rng.nextFloat(0.5f, 8.0f), rng);
            break;
          case 1:
            m = genPowerLaw(n, rng.nextFloat(1.0f, 6.0f), 1.1, rng);
            break;
          case 2:
            m = genBanded(n, rng.nextInt(1, 16),
                          rng.nextFloat(1.0f, 6.0f), rng);
            break;
          case 3:
            m = genBlockDiagonal(n, rng.nextInt(2, 24),
                                 rng.nextDouble(), rng);
            break;
          default: {
            // Non-square COO with duplicate-free random pattern.
            const int64_t cols = rng.nextInt(1, 300);
            CooMatrix coo(n, cols);
            const int64_t entries = rng.nextInt(0, 4 * n);
            for (int64_t e = 0; e < entries; ++e)
                coo.add(static_cast<int32_t>(rng.nextBounded(n)),
                        static_cast<int32_t>(rng.nextBounded(cols)),
                        rng.nextFloat(-2.0f, 2.0f));
            m = CsrMatrix::fromCoo(coo);
            break;
          }
        }

        const SgtResult sgt = sgtCondense(m);
        EXPECT_EQ(sgt.nnz, m.nnz());

        const MeTcfMatrix conv = MeTcfMatrix::build(m);
        const CsrMatrix back = conv.toCsr();
        EXPECT_TRUE(back == m);
    }
}

} // namespace
} // namespace dtc
