/**
 * @file
 * Runtime-dispatched SIMD micro-kernel backend of the host engine.
 *
 * The engine's compute tier: a small table of register-blocked
 * micro-kernels (axpy, residue-lane axpy with software prefetch, the
 * dense windowHeight x blockWidth tile inner product, and the
 * PreparedDense precision-rounding pass), each implemented per ISA:
 *
 *   - scalar  — portable backend, plain j-blocked loops;
 *   - avx2    — 8-wide __m256 (compiled with -mavx2);
 *   - avx512  — 16-wide __m512 with an 8-wide remainder step
 *               (compiled with -mavx512{f,dq,bw,vl}).
 *
 * Bitwise identity is a hard contract: every backend performs, per
 * output element, the exact FP32 operation sequence of the naive
 * reference (kernels/reference.h) — separate multiply then add (the
 * per-ISA translation units are compiled with -ffp-contract=off so no
 * FMA contraction can merge them) and ascending-j, ascending-lane
 * accumulation order.  Vectorizing across the j (column) dimension
 * is order-preserving because each c[j] += v * b[j] is independent
 * per j.
 *
 * Dispatch resolution, strongest first: an active ScopedSimdMode on
 * the calling thread, the typed DTC_SIMD environment knob
 * (scalar|avx2|avx512 — anything else, or an ISA the CPU lacks,
 * raises DtcError(InvalidInput)), then cpuid auto-detection.
 *
 * Observability: the selected ISA is published as the
 * "engine.simd.isa" gauge, and every dispatched call splits its
 * elements into "engine.simd.vector_elems" / "engine.simd.tail_elems"
 * counters.  The split is *defined* against the fixed 8-wide j-block
 * (vector = n - n%8, tail = n%8) rather than the physical lane count,
 * so an AVX-512 host and an AVX2 host report identical counters and
 * bench_compare can gate them exactly across machines.
 */
#ifndef DTC_HOST_ENGINE_SIMD_SIMD_H
#define DTC_HOST_ENGINE_SIMD_SIMD_H

#include <cstdint>

#include "common/precision.h"
#include "obs/metrics.h"

namespace dtc {
namespace engine {
namespace simd {

/**
 * Backend selector.  Order matters: later entries are wider ISAs.
 * The values are fixed because the "engine.simd.isa" gauge publishes
 * them.
 */
enum class Isa
{
    Scalar = 1, ///< Portable backend.
    Avx2 = 2,   ///< 8-wide __m256.
    Avx512 = 3, ///< 16-wide __m512 (+ 8-wide remainder step).
};

/** Display name: "scalar", "avx2", "avx512". */
const char* isaName(Isa isa);

/** Widest ISA this CPU supports (cached after first call). */
Isa detectedIsa();

/** True when this build + CPU can execute @p isa. */
bool isaSupported(Isa isa);

/**
 * The backend the calling thread should use right now.  Resolution,
 * strongest first: ScopedSimdMode on this thread, the DTC_SIMD
 * environment variable (re-read per call so tests can toggle it;
 * typed — unknown or unsupported values raise
 * DtcError(InvalidInput)), then detectedIsa().
 */
Isa activeIsa();

/** RAII thread-local ISA override (mirrors ScopedNumThreads). */
class ScopedSimdMode
{
  public:
    explicit ScopedSimdMode(Isa isa);
    ~ScopedSimdMode();

    ScopedSimdMode(const ScopedSimdMode&) = delete;
    ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

  private:
    int prev;
};

/**
 * The micro-kernel table of one backend.  Callers resolve the table
 * once per compute() call — on the calling thread, *before* entering
 * parallelFor, so a ScopedSimdMode override propagates into worker
 * threads via the captured reference.
 */
struct Kernels
{
    Isa isa;

    /** c[0..n) += v * b[0..n); ascending j, separate mul + add. */
    void (*axpy)(float* c, const float* b, float v, int64_t n);

    /**
     * axpy plus a software prefetch of @p next_b (the next sparse
     * lane's B row; nullptr = nothing to prefetch).  The residue-lane
     * analog of the paper's non-condensed fetch path: the next lane's
     * B row is pulled toward L1 while the current lane multiplies.
     */
    void (*axpyPrefetch)(float* c, const float* b, float v, int64_t n,
                         const float* next_b);

    /**
     * Dense-tile inner product, the host analog of one m16n8k8 MMA:
     * for every tile row i in [0, wh) and column j in [0, n),
     *   c[i*c_stride + j] += sum over l in [0, bw) of
     *                        tile[i*bw + l] * brows[l][j],
     * accumulated in ascending-l order per element (bitwise identical
     * to bw successive axpy calls).  @p brows holds the bw B-row
     * pointers, already offset to the current column panel.
     */
    void (*tileInner)(float* c, int64_t c_stride, const float* tile,
                      const float* const* brows, int64_t wh,
                      int64_t bw, int64_t n);

    /**
     * out[0..n) = roundToPrecision(in[0..n), p) — the PreparedDense
     * round-to-storage pass.  Does NOT bump the simd element
     * counters: its chunk sizes depend on parallelFor decomposition,
     * so the caller counts once per whole pass instead (keeping
     * counter totals independent of thread count).
     */
    void (*roundPanel)(float* out, const float* in, int64_t n,
                       Precision p);
};

/** Table for activeIsa(); also publishes the "engine.simd.isa" gauge. */
const Kernels& kernels();

/**
 * Table for a specific ISA.  Raises DtcError(InvalidInput) when the
 * backend is not compiled into this build or the CPU lacks it.
 */
const Kernels& kernelsFor(Isa isa);

/**
 * Element counters, backed by the metrics registry under
 * "engine.simd.vector_elems" / "engine.simd.tail_elems".  Defined
 * against the fixed 8-wide j-block regardless of physical ISA width
 * (see file comment); the scalar backend counts everything as tail.
 */
struct SimdStats
{
    obs::Counter& vectorElems;
    obs::Counter& tailElems;
};

SimdStats& stats();
void resetStats();

} // namespace simd
} // namespace engine
} // namespace dtc

#endif // DTC_HOST_ENGINE_SIMD_SIMD_H
