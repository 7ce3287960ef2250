/**
 * @file
 * Fixed-width vector abstraction for the per-ISA micro-kernel TUs.
 *
 * Included only by the kernels_*.cc translation units, each of which
 * defines exactly one of DTC_SIMD_BACKEND_SCALAR /
 * DTC_SIMD_BACKEND_AVX2 / DTC_SIMD_BACKEND_AVX512 before inclusion
 * and is compiled with the matching -m flags *plus -ffp-contract=off*
 * (mandatory: a contracted FMA would fuse the separate multiply and
 * add these helpers emit and break bitwise identity with the scalar
 * engine).
 *
 * Two op families:
 *   - 8-wide __m256 helpers (AVX2 and AVX-512 TUs; -mavx512f implies
 *     AVX2, and -mavx512vl makes the 256-bit EVEX forms available);
 *   - 16-wide __m512 helpers (AVX-512 TU only).
 *
 * The rounding helpers reproduce common/precision.cc bit for bit:
 * RNE mantissa truncation as integer arithmetic on the float bit
 * patterns (add (1<<(drop-1))-1 + lsb, mask the low bits), with
 * non-finite inputs passed through unchanged, and for FP16 the
 * saturate-beyond-65504 / flush-below-min-normal semantics of the
 * hardware MMA path.  All loads/stores are unaligned-instruction
 * forms: buffer *bases* are 64-byte aligned (common/aligned.h) but
 * panel-offset row interiors need not be.
 */
#ifndef DTC_HOST_ENGINE_SIMD_VEC_H
#define DTC_HOST_ENGINE_SIMD_VEC_H

#include <cstdint>

#if defined(DTC_SIMD_BACKEND_AVX2) || defined(DTC_SIMD_BACKEND_AVX512)
#include <immintrin.h>
#endif

namespace dtc {
namespace engine {
namespace simd {
namespace vec {

#if defined(DTC_SIMD_BACKEND_AVX2) || defined(DTC_SIMD_BACKEND_AVX512)

// ---- 8-wide float (__m256) -----------------------------------------

inline __m256
load8(const float* p)
{
    return _mm256_loadu_ps(p);
}

inline void
store8(float* p, __m256 v)
{
    _mm256_storeu_ps(p, v);
}

inline __m256
set8(float x)
{
    return _mm256_set1_ps(x);
}

/** acc + v * b as separate mul then add (no contraction). */
inline __m256
mulAdd8(__m256 acc, __m256 v, __m256 b)
{
    return _mm256_add_ps(acc, _mm256_mul_ps(v, b));
}

/**
 * RNE-truncates the low Drop mantissa bits of every finite lane;
 * non-finite lanes (exponent all-ones: NaN/Inf) pass through.
 * Bit-identical to precision.cc roundMantissa applied per lane.
 */
template <int Drop>
inline __m256
roundMantissa8(__m256 x)
{
    const __m256i bits = _mm256_castps_si256(x);
    const __m256i lsb = _mm256_and_si256(
        _mm256_srli_epi32(bits, Drop), _mm256_set1_epi32(1));
    __m256i r = _mm256_add_epi32(
        bits, _mm256_add_epi32(
                  _mm256_set1_epi32((1 << (Drop - 1)) - 1), lsb));
    r = _mm256_and_si256(
        r, _mm256_set1_epi32(~((1 << Drop) - 1)));
    const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
    const __m256i nonfinite = _mm256_cmpeq_epi32(
        _mm256_and_si256(bits, exp_mask), exp_mask);
    return _mm256_castsi256_ps(
        _mm256_blendv_epi8(r, bits, nonfinite));
}

inline __m256
roundTf32x8(__m256 x)
{
    return roundMantissa8<13>(x);
}

inline __m256
roundBf16x8(__m256 x)
{
    return roundMantissa8<16>(x);
}

inline __m256
roundFp16x8(__m256 x)
{
    const __m256 r = roundMantissa8<13>(x);
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    const __m256 abs_r = _mm256_and_ps(r, abs_mask);
    const __m256 sign = _mm256_andnot_ps(abs_mask, r);
    // Saturate |r| > 65504 to signed infinity; flush |r| below the
    // FP16 min normal to signed zero.  The two masks are disjoint, so
    // application order is immaterial; a +-0 lane "flushes" to the
    // identical +-0.  Non-finite *inputs* were already passed through
    // by roundMantissa8 (their |r| is Inf/NaN: the GT compare leaves
    // Inf saturated to the same signed Inf, and ordered compares are
    // false for NaN — both preserved).
    const __m256 sat =
        _mm256_cmp_ps(abs_r, _mm256_set1_ps(65504.0f), _CMP_GT_OQ);
    const __m256 flush = _mm256_cmp_ps(
        abs_r, _mm256_set1_ps(6.103515625e-5f), _CMP_LT_OQ);
    const __m256 inf = _mm256_castsi256_ps(
        _mm256_set1_epi32(0x7F800000));
    __m256 out = _mm256_blendv_ps(r, _mm256_or_ps(sign, inf), sat);
    out = _mm256_blendv_ps(out, sign, flush);
    return out;
}

/** Pull the cache lines of [p, p + floats) toward L1. */
inline void
prefetch(const float* p, int64_t floats)
{
    if (!p)
        return;
    _mm_prefetch(reinterpret_cast<const char*>(p), _MM_HINT_T0);
    if (floats > 16)
        _mm_prefetch(reinterpret_cast<const char*>(p + 16),
                     _MM_HINT_T0);
}

#endif // AVX2 || AVX512

#if defined(DTC_SIMD_BACKEND_AVX512)

// ---- 16-wide float (__m512) ----------------------------------------

inline __m512
load16(const float* p)
{
    return _mm512_loadu_ps(p);
}

inline void
store16(float* p, __m512 v)
{
    _mm512_storeu_ps(p, v);
}

inline __m512
set16(float x)
{
    return _mm512_set1_ps(x);
}

inline __m512
mulAdd16(__m512 acc, __m512 v, __m512 b)
{
    return _mm512_add_ps(acc, _mm512_mul_ps(v, b));
}

template <int Drop>
inline __m512
roundMantissa16(__m512 x)
{
    const __m512i bits = _mm512_castps_si512(x);
    const __m512i lsb = _mm512_and_si512(
        _mm512_srli_epi32(bits, Drop), _mm512_set1_epi32(1));
    __m512i r = _mm512_add_epi32(
        bits, _mm512_add_epi32(
                  _mm512_set1_epi32((1 << (Drop - 1)) - 1), lsb));
    r = _mm512_and_si512(
        r, _mm512_set1_epi32(~((1 << Drop) - 1)));
    const __m512i exp_mask = _mm512_set1_epi32(0x7F800000);
    const __mmask16 nonfinite = _mm512_cmpeq_epi32_mask(
        _mm512_and_si512(bits, exp_mask), exp_mask);
    return _mm512_castsi512_ps(
        _mm512_mask_blend_epi32(nonfinite, r, bits));
}

inline __m512
roundTf32x16(__m512 x)
{
    return roundMantissa16<13>(x);
}

inline __m512
roundBf16x16(__m512 x)
{
    return roundMantissa16<16>(x);
}

inline __m512
roundFp16x16(__m512 x)
{
    const __m512 r = roundMantissa16<13>(x);
    const __m512 abs_mask =
        _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
    const __m512 abs_r = _mm512_and_ps(r, abs_mask);
    const __m512 sign = _mm512_andnot_ps(abs_mask, r);
    const __mmask16 sat = _mm512_cmp_ps_mask(
        abs_r, _mm512_set1_ps(65504.0f), _CMP_GT_OQ);
    const __mmask16 flush = _mm512_cmp_ps_mask(
        abs_r, _mm512_set1_ps(6.103515625e-5f), _CMP_LT_OQ);
    const __m512 inf = _mm512_castsi512_ps(
        _mm512_set1_epi32(0x7F800000));
    __m512 out =
        _mm512_mask_blend_ps(sat, r, _mm512_or_ps(sign, inf));
    out = _mm512_mask_blend_ps(flush, out, sign);
    return out;
}

#endif // AVX512

#if defined(DTC_SIMD_BACKEND_SCALAR)

/** Portable prefetch hint (a no-op on targets without one). */
inline void
prefetch(const float* p, int64_t)
{
    if (p)
        __builtin_prefetch(p, 0, 3);
}

#endif // SCALAR

} // namespace vec
} // namespace simd
} // namespace engine
} // namespace dtc

#endif // DTC_HOST_ENGINE_SIMD_VEC_H
