/**
 * @file
 * Engine equivalence suite: every kernel routed through the host
 * execution engine (src/engine/) must produce compute() output bitwise
 * identical to the naive, engine-free reference (kernels/reference.h)
 * on every SIMD backend the host supports, across matrix shapes, dense
 * widths (ragged j-block tails, the AVX-512 16-lane step, panel-exact
 * and multi-panel N), operand precisions and thread counts.  Also pins
 * the rounding PreparedDense and the roundPanel micro-kernels perform,
 * that every compute() call rounds B afresh, and that the reference
 * itself books no engine work (so it cannot share a bug with the
 * engine).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/parallel.h"
#include "common/precision.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "engine/engine.h"
#include "engine/prepared_dense.h"
#include "engine/simd/simd.h"
#include "gnn/dense_ops.h"
#include "kernels/kernel.h"
#include "kernels/reference.h"
#include "matrix/coo.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace dtc {
namespace {

using engine::simd::Isa;
using engine::simd::ScopedSimdMode;

/**
 * Dense widths: 1 and 7 (sub-vector), 8 and 16 (j-block multiples),
 * 9 and 13 (one vector plus a tail), 33 (crosses the AVX-512 16-lane
 * step), 137 (odd), 256 (= kPanelCols, panel-exact) and 515 (odd AND
 * > 2*kPanelCols, forcing the multi-panel path with a ragged last
 * panel).  Tests pin ScopedPanelCols(kPanelCols) so 515 spans several
 * panels even where the auto-tuned base (engine::panelColsBase) is
 * wide enough to make it a single panel.
 */
const int64_t kWidths[] = {1, 7, 8, 9, 13, 16, 33, 137, 256, 515};

const Precision kAllPrecisions[] = {Precision::Fp32, Precision::Tf32,
                                    Precision::Bf16, Precision::Fp16};

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

    Rng rng(2024);
    // Full 16x8 blocks: the register-blocked tileInner path.
    out.emplace_back("dense-blocks",
                     genBlockDiagonal(64, 16, 1.0, rng));
    // Partially-filled blocks: the residue-lane (axpyPrefetch) path.
    out.emplace_back("dense-ish",
                     genBlockDiagonal(64, 16, 0.9, rng));
    out.emplace_back("sparse-95pct", genUniform(256, 4.0, rng));
    out.emplace_back("community",
                     genCommunity(512, 8, 12.0, 0.85, rng));
    return out;
}

std::vector<KernelKind>
engineRoutedKinds()
{
    return {KernelKind::CuSparse, KernelKind::Tcgnn,
            KernelKind::Dtc,      KernelKind::DtcBase,
            KernelKind::DtcBalanced, KernelKind::Sputnik};
}

/** Every backend the host can actually run (always includes Scalar). */
std::vector<Isa>
supportedBackends()
{
    std::vector<Isa> out = {Isa::Scalar};
    for (Isa isa : {Isa::Avx2, Isa::Avx512})
        if (engine::simd::isaSupported(isa))
            out.push_back(isa);
    return out;
}

DenseMatrix
randomDense(int64_t rows, int64_t cols)
{
    Rng rng(99);
    DenseMatrix b(rows, cols);
    b.fillRandom(rng);
    return b;
}

/** The naive judge: referenceSpmmRounded at precision @p p. */
DenseMatrix
naive(const CsrMatrix& a, const DenseMatrix& b, Precision p)
{
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmmRounded(a, b, c, p);
    return c;
}

/**
 * compute() on backend @p isa; the call rounds B with that backend's
 * roundPanel, so each backend's rounding is exercised too.
 */
DenseMatrix
runCompute(const SpmmKernel& kernel, const DenseMatrix& b, int64_t rows,
           Isa isa)
{
    ScopedSimdMode mode(isa);
    DenseMatrix c(rows, b.cols());
    kernel.compute(b, c);
    return c;
}

void
expectBitwiseEqual(const DenseMatrix& a, const DenseMatrix& b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    if (a.size() > 0) {
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(float)),
                  0);
    }
}

/**
 * For every engine-routed kernel at every precision it can run at,
 * every supported backend and every width, compute() equals the
 * naive reference at that precision.
 */
TEST(EngineEquivalence, AllEngineRoutedKernelsAllWidths)
{
    engine::ScopedPanelCols pin(engine::kPanelCols);
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : engineRoutedKinds()) {
            for (Precision p : kAllPrecisions) {
                auto kernel = makeKernelAt(kind, p);
                if (!kernel || !kernel->prepare(m).empty())
                    continue;
                for (int64_t n : kWidths) {
                    const DenseMatrix b = randomDense(m.cols(), n);
                    const DenseMatrix want = naive(m, b, p);
                    for (Isa isa : supportedBackends()) {
                        SCOPED_TRACE(std::string(kernelKindName(kind)) +
                                     " on " + mat_name + " p=" +
                                     precisionName(p) + " n=" +
                                     std::to_string(n) + " isa=" +
                                     engine::simd::isaName(isa));
                        expectBitwiseEqual(
                            want, runCompute(*kernel, b, m.rows(), isa));
                    }
                }
            }
        }
    }
}

/** The DTC family at every tensor-core precision and thread count. */
TEST(EngineEquivalence, DtcAllPrecisions)
{
    engine::ScopedPanelCols pin(engine::kPanelCols);
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : {KernelKind::Dtc, KernelKind::DtcBase,
                                KernelKind::DtcBalanced}) {
            for (Precision p : {Precision::Tf32, Precision::Bf16,
                                Precision::Fp16}) {
                auto kernel = makeKernelAt(kind, p);
                ASSERT_NE(kernel, nullptr);
                if (!kernel->prepare(m).empty())
                    continue;
                for (int64_t n : kWidths) {
                    const DenseMatrix b = randomDense(m.cols(), n);
                    const DenseMatrix want = naive(m, b, p);
                    for (int threads : {1, 4, 8}) {
                        ScopedNumThreads nt(threads);
                        for (Isa isa : supportedBackends()) {
                            SCOPED_TRACE(
                                std::string(kernelKindName(kind)) +
                                " on " + mat_name + " p=" +
                                precisionName(p) + " threads=" +
                                std::to_string(threads) + " n=" +
                                std::to_string(n) + " isa=" +
                                engine::simd::isaName(isa));
                            expectBitwiseEqual(
                                want,
                                runCompute(*kernel, b, m.rows(), isa));
                        }
                    }
                }
            }
        }
    }
}

/** Every engine-routed kernel at every thread count. */
TEST(EngineEquivalence, EngineOnThreadCountInvariant)
{
    engine::ScopedPanelCols pin(engine::kPanelCols);
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (KernelKind kind : engineRoutedKinds()) {
            auto kernel = makeKernel(kind);
            if (!kernel->prepare(m).empty())
                continue;
            const Precision p = kernelTraits(kind).nativePrecision;
            for (int64_t n : {137, 515}) {
                const DenseMatrix b = randomDense(m.cols(), n);
                const DenseMatrix want = naive(m, b, p);
                for (int threads : {1, 4, 8}) {
                    ScopedNumThreads nt(threads);
                    for (Isa isa : supportedBackends()) {
                        SCOPED_TRACE(std::string(kernelKindName(kind)) +
                                     " on " + mat_name + " n=" +
                                     std::to_string(n) + " threads=" +
                                     std::to_string(threads) + " isa=" +
                                     engine::simd::isaName(isa));
                        expectBitwiseEqual(
                            want, runCompute(*kernel, b, m.rows(), isa));
                    }
                }
            }
        }
    }
}

/**
 * The references themselves: referenceSpmmTf32 is referenceSpmmRounded
 * at Tf32, and neither reference depends on the thread count.
 */
TEST(EngineEquivalence, ReferenceKernels)
{
    for (const auto& [mat_name, m] : sweepMatrices()) {
        for (int64_t n : kWidths) {
            SCOPED_TRACE(mat_name + " n=" + std::to_string(n));
            const DenseMatrix b = randomDense(m.cols(), n);

            DenseMatrix tf32(m.rows(), n);
            referenceSpmmTf32(m, b, tf32);
            expectBitwiseEqual(naive(m, b, Precision::Tf32), tf32);

            DenseMatrix d1(m.rows(), n), d8(m.rows(), n);
            {
                ScopedNumThreads t(1);
                referenceSpmm(m, b, d1);
            }
            {
                ScopedNumThreads t(8);
                referenceSpmm(m, b, d8);
            }
            expectBitwiseEqual(d1, d8);

            for (Precision p : kAllPrecisions) {
                DenseMatrix r1, r8;
                {
                    ScopedNumThreads t(1);
                    r1 = naive(m, b, p);
                }
                {
                    ScopedNumThreads t(8);
                    r8 = naive(m, b, p);
                }
                expectBitwiseEqual(r1, r8);
            }
        }
    }
}

/** Every counter and gauge under "engine.", by name. */
std::map<std::string, double>
engineMetrics()
{
    const obs::JsonValue doc =
        obs::json::parse(obs::metrics::toJson());
    std::map<std::string, double> out;
    for (const char* section : {"counters", "gauges"})
        for (const auto& [name, v] : doc.at(section).asObject())
            if (name.rfind("engine.", 0) == 0)
                out[std::string(section) + ":" + name] = v.asNumber();
    return out;
}

/**
 * The judge never goes through the engine: no PreparedDense rounding,
 * no SIMD dispatch.
 */
TEST(EngineEquivalence, ReferenceBooksNoEngineWork)
{
    Rng rng(8);
    const CsrMatrix m = genCommunity(256, 8, 10.0, 0.85, rng);
    const DenseMatrix b = randomDense(m.cols(), 75);
    DenseMatrix c(m.rows(), 75);

    const std::map<std::string, double> before = engineMetrics();
    referenceSpmm(m, b, c);
    referenceSpmmTf32(m, b, c);
    for (Precision p : kAllPrecisions)
        referenceSpmmRounded(m, b, c, p);
    EXPECT_EQ(engineMetrics(), before);
}

TEST(EngineEquivalence, GemmAllTransposeCombos)
{
    Rng rng(11);
    const int64_t m = 37, k = 23, n = 13; // odd, j-block-ragged
    for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
            DenseMatrix a(ta ? k : m, ta ? m : k);
            DenseMatrix b(tb ? n : k, tb ? k : n);
            a.fillRandom(rng);
            b.fillRandom(rng);
            // Naive i-k-j product with gemm's zero skip.
            DenseMatrix want(m, n);
            want.setZero();
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float av = ta ? a.at(kk, i) : a.at(i, kk);
                    if (av == 0.0f)
                        continue;
                    for (int64_t j = 0; j < n; ++j)
                        want.at(i, j) +=
                            av * (tb ? b.at(j, kk) : b.at(kk, j));
                }
            }
            for (Isa isa : supportedBackends()) {
                SCOPED_TRACE(std::string("ta=") + (ta ? "1" : "0") +
                             " tb=" + (tb ? "1" : "0") + " isa=" +
                             engine::simd::isaName(isa));
                ScopedSimdMode mode(isa);
                DenseMatrix got(m, n);
                gemm(a, ta, b, tb, got);
                expectBitwiseEqual(want, got);
            }
        }
    }
}

/**
 * PreparedDense keeps nothing between calls: two Tf32 compute() calls
 * on an unchanged B round it twice (2*K*N rounding ops), a call after
 * an in-place edit of B sees the edit, and Fp32 is a zero-copy view
 * that rounds nothing.
 */
TEST(EngineEquivalence, EveryComputeRoundsB)
{
    Rng rng(3);
    const CsrMatrix m = genCommunity(128, 8, 10.0, 0.85, rng);
    auto kernel = makeKernelAt(KernelKind::Dtc, Precision::Tf32);
    ASSERT_NE(kernel, nullptr);
    ASSERT_TRUE(kernel->prepare(m).empty());
    DenseMatrix b = randomDense(m.cols(), 32);
    const uint64_t kn = static_cast<uint64_t>(b.size());

    const uint64_t ops0 = engine::stats().roundingOps.load();
    DenseMatrix c(m.rows(), b.cols());
    kernel->compute(b, c);
    kernel->compute(b, c);
    EXPECT_EQ(engine::stats().roundingOps.load() - ops0, 2 * kn);

    // In-place edit (a GCN feature matrix between steps): the next
    // call rounds the new contents.
    b.at(5, 7) += 1.0f;
    kernel->compute(b, c);
    expectBitwiseEqual(naive(m, b, Precision::Tf32), c);
    EXPECT_EQ(engine::stats().roundingOps.load() - ops0, 3 * kn);

    // Fp32 is pass-through: no rounding, no copy.
    const uint64_t ops = engine::stats().roundingOps.load();
    {
        const engine::PreparedDense pd(b, Precision::Fp32);
        EXPECT_EQ(pd.row(0), b.row(0));
    }
    EXPECT_EQ(engine::stats().roundingOps.load(), ops);
}

/**
 * PreparedDense panels and the raw roundPanel micro-kernel of every
 * backend contain exactly roundToPrecision(B), including FP16
 * saturation/flush edges and non-finite passthrough.
 */
TEST(EngineEquivalence, PreparedDenseValuesMatchScalarRounding)
{
    AlignedVector<float> in;
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        in.push_back(rng.nextFloat(-70000.0f, 70000.0f));
    for (int i = 0; i < 100; ++i)
        in.push_back(rng.nextFloat(-1e-4f, 1e-4f)); // FP16 subnormals
    const float specials[] = {
        0.0f,
        -0.0f,
        65504.0f,
        -65504.0f,
        65520.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        6.103515625e-5f,
    };
    in.insert(in.end(), std::begin(specials), std::end(specials));
    // 1111 elements: odd, so every backend's scalar tail runs, and a
    // 101 x 11 matrix for the PreparedDense half.
    in.push_back(1.5f);
    const int64_t n = static_cast<int64_t>(in.size());
    ASSERT_EQ(n, 101 * 11);
    DenseMatrix b(101, 11);
    std::memcpy(b.data(), in.data(), in.size() * sizeof(float));

    auto expectRounded = [&](const float* got, Precision p) {
        for (int64_t i = 0; i < n; ++i) {
            const float want = roundToPrecision(in[i], p);
            ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(float)), 0)
                << "i=" << i << " in=" << in[i] << " got=" << got[i]
                << " want=" << want;
        }
    };
    for (Precision p : kAllPrecisions) {
        for (Isa isa : supportedBackends()) {
            SCOPED_TRACE(std::string(precisionName(p)) + " isa=" +
                         engine::simd::isaName(isa));
            AlignedVector<float> out(in.size(), 0.0f);
            engine::simd::kernelsFor(isa).roundPanel(out.data(),
                                                     in.data(), n, p);
            expectRounded(out.data(), p);

            ScopedSimdMode mode(isa);
            const engine::PreparedDense pd(b, p);
            expectRounded(pd.row(0), p);
        }
    }
}

/**
 * compute() owns every element of C: each parallel chunk zeroes its
 * own rows, so a C pre-filled with NaN still comes out equal to the
 * naive reference, on a row count that leaves DTC a partial last
 * window and splits every kernel into several chunks.
 */
TEST(EngineEquivalence, ComputeOverwritesStaleOutput)
{
    Rng rng(31);
    const CsrMatrix m = genCommunity(1000, 8, 10.0, 0.85, rng);
    ASSERT_NE(m.rows() % 16, 0);
    const int64_t n = 37;
    const DenseMatrix b = randomDense(m.cols(), n);
    std::vector<std::pair<KernelKind, Precision>> cases = {
        {KernelKind::CuSparse, Precision::Fp32},
        {KernelKind::Sputnik, Precision::Fp32},
        {KernelKind::Tcgnn, Precision::Tf32}};
    for (Precision p : {Precision::Tf32, Precision::Bf16,
                        Precision::Fp16})
        cases.emplace_back(KernelKind::Dtc, p);
    for (const auto& [kind, p] : cases) {
        auto kernel = makeKernelAt(kind, p);
        ASSERT_NE(kernel, nullptr);
        ASSERT_TRUE(kernel->prepare(m).empty());
        const DenseMatrix want = naive(m, b, p);
        for (int threads : {1, 4, 8}) {
            SCOPED_TRACE(std::string(kernelKindName(kind)) + " p=" +
                         precisionName(p) + " threads=" +
                         std::to_string(threads));
            ScopedNumThreads nt(threads);
            DenseMatrix c(m.rows(), n);
            c.fill(std::numeric_limits<float>::quiet_NaN());
            kernel->compute(b, c);
            expectBitwiseEqual(want, c);
        }
    }
}

/**
 * The rounded buffer starts uninitialised and the parallel rounding
 * pass is its only writer, so a B whose row count is not a multiple
 * of the pass's row chunk must still come out fully rounded.
 */
TEST(EngineEquivalence, PreparedDenseRoundsEveryChunk)
{
    const int64_t rows = 601, cols = 13; // 601 = 2 * 256 + 89
    DenseMatrix b(rows, cols);
    Rng rng(41);
    b.fillRandom(rng, -70000.0f, 70000.0f);
    b.at(rows - 1, cols - 1) = std::numeric_limits<float>::quiet_NaN();
    for (Precision p : {Precision::Tf32, Precision::Bf16,
                        Precision::Fp16}) {
        for (int threads : {1, 4}) {
            SCOPED_TRACE(std::string(precisionName(p)) + " threads=" +
                         std::to_string(threads));
            ScopedNumThreads nt(threads);
            const engine::PreparedDense pd(b, p);
            for (int64_t i = 0; i < rows * cols; ++i) {
                const float want = roundToPrecision(b.data()[i], p);
                ASSERT_EQ(std::memcmp(pd.row(0) + i, &want,
                                      sizeof(float)),
                          0)
                    << "i=" << i;
            }
        }
    }
}

} // namespace
} // namespace dtc
