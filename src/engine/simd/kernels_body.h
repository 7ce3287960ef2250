/**
 * @file
 * Micro-kernel bodies shared by the per-ISA translation units.
 *
 * Each kernels_*.cc defines DTC_SIMD_NS (a unique namespace) and one
 * DTC_SIMD_BACKEND_* macro, then includes this header; the per-ISA
 * code paths are selected with the preprocessor so every TU compiles
 * only the instructions its -m flags permit.  NOT a normal header —
 * no include guard, include it exactly once per backend TU.
 *
 * Contract (see simd.h): per output element, every backend performs
 * the naive reference's exact FP32 sequence — separate multiply then
 * add in ascending-j / ascending-lane order.  The TUs are compiled
 * with -ffp-contract=off, so the compiler cannot fuse them either.
 *
 * Element counters are defined against the fixed 8-wide j-block
 * (vector = n - n%8, tail = n%8) regardless of the backend's physical
 * width, so AVX2 and AVX-512 hosts produce identical counter totals;
 * the scalar backend attributes everything to the tail counter.
 * roundPanel deliberately does not count (its chunk sizes follow the
 * parallelFor decomposition; the caller counts whole passes).
 */
#include <cstdint>

#include "common/precision.h"
#include "engine/simd/simd.h"
#include "engine/simd/vec.h"

namespace dtc {
namespace engine {
namespace simd {
namespace DTC_SIMD_NS {

namespace {

/**
 * Books @p scale axpy-equivalents of length @p n (scale = 1 for a
 * plain axpy, wh*bw for a dense tile).
 */
inline void
countSplit(int64_t n, int64_t scale)
{
    SimdStats& s = stats();
#if defined(DTC_SIMD_BACKEND_SCALAR)
    s.tailElems.add(static_cast<uint64_t>(n * scale));
#else
    // Skip zero-sized halves: an aligned width (n % 8 == 0) costs one
    // add, not two — booking is on every axpy's fast path.
    if (n - (n & 7) > 0)
        s.vectorElems.add(static_cast<uint64_t>((n - (n & 7)) * scale));
    if ((n & 7) > 0)
        s.tailElems.add(static_cast<uint64_t>((n & 7) * scale));
#endif
}

/** axpy body without counting (shared by axpy / axpyPrefetch / tiles). */
inline void
axpyBody(float* __restrict c, const float* __restrict b, float v,
         int64_t n)
{
    int64_t j = 0;
#if defined(DTC_SIMD_BACKEND_SCALAR)
    for (; j + 8 <= n; j += 8) {
        for (int64_t u = 0; u < 8; ++u)
            c[j + u] += v * b[j + u];
    }
#else
#if defined(DTC_SIMD_BACKEND_AVX512)
    const __m512 v16 = vec::set16(v);
    for (; j + 16 <= n; j += 16)
        vec::store16(c + j, vec::mulAdd16(vec::load16(c + j), v16,
                                          vec::load16(b + j)));
#endif
    // AVX2 main loop; under AVX-512 this is the 8..15 remainder step.
    const __m256 v8 = vec::set8(v);
    for (; j + 8 <= n; j += 8)
        vec::store8(c + j, vec::mulAdd8(vec::load8(c + j), v8,
                                        vec::load8(b + j)));
#endif
    for (; j < n; ++j)
        c[j] += v * b[j];
}

void
axpy(float* c, const float* b, float v, int64_t n)
{
    countSplit(n, 1);
    axpyBody(c, b, v, n);
}

void
axpyPrefetch(float* c, const float* b, float v, int64_t n,
             const float* next_b)
{
    vec::prefetch(next_b, n);
    countSplit(n, 1);
    axpyBody(c, b, v, n);
}

/** Widest lane count the register-blocked tile path keeps in registers. */
[[maybe_unused]] constexpr int64_t kMaxTileBw = 16;

void
tileInner(float* c, int64_t c_stride, const float* tile,
          const float* const* brows, int64_t wh, int64_t bw,
          int64_t n)
{
    countSplit(n, wh * bw);
#if !defined(DTC_SIMD_BACKEND_SCALAR)
    if (bw <= kMaxTileBw) {
        // Register-blocked: load each B row's j-chunk once and reuse
        // it across all wh C rows (the fragment-reuse half of the
        // m16n8k8 MMA).  Loop order is j-chunk / i / l, so per C
        // element the accumulation is still ascending-l — bitwise
        // identical to wh*bw successive axpy calls.
        int64_t j = 0;
#if defined(DTC_SIMD_BACKEND_AVX512)
        for (; j + 16 <= n; j += 16) {
            __m512 bv[kMaxTileBw];
            for (int64_t l = 0; l < bw; ++l)
                bv[l] = vec::load16(brows[l] + j);
            for (int64_t i = 0; i < wh; ++i) {
                float* ci = c + i * c_stride;
                const float* trow = tile + i * bw;
                __m512 acc = vec::load16(ci + j);
                for (int64_t l = 0; l < bw; ++l)
                    acc = vec::mulAdd16(acc, vec::set16(trow[l]),
                                        bv[l]);
                vec::store16(ci + j, acc);
            }
        }
#endif
        for (; j + 8 <= n; j += 8) {
            __m256 bv[kMaxTileBw];
            for (int64_t l = 0; l < bw; ++l)
                bv[l] = vec::load8(brows[l] + j);
            for (int64_t i = 0; i < wh; ++i) {
                float* ci = c + i * c_stride;
                const float* trow = tile + i * bw;
                __m256 acc = vec::load8(ci + j);
                for (int64_t l = 0; l < bw; ++l)
                    acc = vec::mulAdd8(acc, vec::set8(trow[l]),
                                       bv[l]);
                vec::store8(ci + j, acc);
            }
        }
        for (; j < n; ++j) {
            for (int64_t i = 0; i < wh; ++i) {
                float* ci = c + i * c_stride;
                const float* trow = tile + i * bw;
                for (int64_t l = 0; l < bw; ++l)
                    ci[j] += trow[l] * brows[l][j];
            }
        }
        return;
    }
#endif
    // Scalar backend, or a block shape too wide to register-block:
    // per row, per lane, axpy across the panel.
    for (int64_t i = 0; i < wh; ++i) {
        float* ci = c + i * c_stride;
        const float* trow = tile + i * bw;
        for (int64_t l = 0; l < bw; ++l)
            axpyBody(ci, brows[l], trow[l], n);
    }
}

void
roundPanel(float* __restrict out, const float* __restrict in,
           int64_t n, Precision p)
{
#if defined(DTC_SIMD_BACKEND_SCALAR)
    for (int64_t i = 0; i < n; ++i)
        out[i] = roundToPrecision(in[i], p);
#else
    if (p == Precision::Fp32) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = in[i];
        return;
    }
    int64_t j = 0;
#if defined(DTC_SIMD_BACKEND_AVX512)
#define DTC_SIMD_ROUND16(FN)                                          \
    for (; j + 16 <= n; j += 16)                                      \
        vec::store16(out + j, vec::FN(vec::load16(in + j)));
#else
#define DTC_SIMD_ROUND16(FN)
#endif
#define DTC_SIMD_ROUND_LOOP(FN16, FN8)                                \
    do {                                                              \
        DTC_SIMD_ROUND16(FN16)                                        \
        for (; j + 8 <= n; j += 8)                                    \
            vec::store8(out + j, vec::FN8(vec::load8(in + j)));       \
    } while (0)
    switch (p) {
      case Precision::Tf32:
        DTC_SIMD_ROUND_LOOP(roundTf32x16, roundTf32x8);
        break;
      case Precision::Bf16:
        DTC_SIMD_ROUND_LOOP(roundBf16x16, roundBf16x8);
        break;
      case Precision::Fp16:
        DTC_SIMD_ROUND_LOOP(roundFp16x16, roundFp16x8);
        break;
      case Precision::Fp32:
        break; // handled above
    }
#undef DTC_SIMD_ROUND_LOOP
#undef DTC_SIMD_ROUND16
    for (; j < n; ++j)
        out[j] = roundToPrecision(in[j], p);
#endif
}

} // namespace

/** The backend's dispatch table (see tables.h). */
Kernels
makeTable(Isa isa)
{
    return Kernels{isa, axpy, axpyPrefetch, tileInner, roundPanel};
}

} // namespace DTC_SIMD_NS
} // namespace simd
} // namespace engine
} // namespace dtc
