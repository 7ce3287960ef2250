#include "engine/prepared_dense.h"

#include "common/parallel.h"
#include "engine/engine.h"
#include "engine/simd/simd.h"

namespace dtc {
namespace engine {

namespace {

/** Rows per parallelFor chunk for the rounding pass. */
constexpr int64_t kRowGrain = 256;

} // namespace

PreparedDense::PreparedDense(const DenseMatrix& b, Precision p)
    : nRows(b.rows()), nCols(b.cols())
{
    if (p == Precision::Fp32) {
        // No rounding, no copy: point straight at the caller's data.
        base = b.data();
        return;
    }

    DTC_TRACE_SCOPE("engine.prepare_dense");
    // No value-initialisation: the parallel rounding pass below
    // writes every element, so it is also the buffer's first touch.
    owned = makeAlignedArray<float>(b.size());
    float* out = owned.get();
    const float* in = b.data();
    // Table resolved on the calling thread (a thread-local
    // ScopedSimdMode would not reach parallelFor workers).
    const simd::Kernels& K = simd::kernels();
    parallelFor(0, b.rows(), kRowGrain,
                [&](int64_t lo, int64_t hi) {
        const int64_t e_lo = lo * b.cols();
        const int64_t e_hi = hi * b.cols();
        K.roundPanel(out + e_lo, in + e_lo, e_hi - e_lo, p);
    });
    base = out;

    const auto total = static_cast<uint64_t>(b.size());
    stats().roundingOps.add(total);
    // roundPanel itself does not book elements (chunk sizes follow
    // the parallelFor decomposition); count the whole pass here,
    // definitionally against the fixed 8-wide block, so the
    // engine.simd.* totals are thread-count independent.
    if (K.isa == simd::Isa::Scalar) {
        simd::stats().tailElems.add(total);
    } else {
        simd::stats().vectorElems.add(total - total % 8);
        simd::stats().tailElems.add(total % 8);
    }
}

} // namespace engine
} // namespace dtc
