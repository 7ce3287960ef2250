/**
 * @file
 * PreparedDense — B rounded once per compute() call.
 *
 * Tensor-core kernels round every B operand to the MMA input
 * precision (TF32/BF16/FP16).  The naive reference does that inside the
 * innermost loop — O(nnz*N) roundings per compute() call, the single
 * largest source of per-element overhead on the host.  PreparedDense
 * rounds B exactly once per construction — O(K*N) — into a buffer it
 * owns, and the kernel's hot loop reads the rounded rows from there.
 * Nothing outlives the object: a matrix mutated in place between
 * calls (a GCN feature matrix between training steps) is simply
 * rounded afresh by the next call.
 *
 * Fp32 needs no rounding: the object is a zero-copy view of the
 * caller's matrix (the SMB analog — no staging copy at all).
 *
 * Rounding is elementwise, so the rounded buffer is bitwise
 * independent of thread count, and reading rounded values multiplies
 * the exact floats the naive reference produces inline.
 */
#ifndef DTC_HOST_ENGINE_PREPARED_DENSE_H
#define DTC_HOST_ENGINE_PREPARED_DENSE_H

#include <cstdint>

#include "common/aligned.h"
#include "common/precision.h"
#include "matrix/dense.h"

namespace dtc {
namespace engine {

/**
 * A read view of B in the target operand precision, valid while both
 * this object and the source matrix are alive.
 */
class PreparedDense
{
  public:
    /**
     * Rounds @p b to precision @p p into an owned buffer, or views
     * @p b in place for Fp32.
     */
    PreparedDense(const DenseMatrix& b, Precision p);

    PreparedDense(const PreparedDense&) = delete;
    PreparedDense& operator=(const PreparedDense&) = delete;

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }

    /** Row @p r of B, already in the operand precision. */
    const float*
    row(int64_t r) const
    {
        return base + r * nCols;
    }

  private:
    /** Uninitialised until the rounding pass, its first touch. */
    AlignedArray<float> owned;
    const float* base = nullptr;
    int64_t nRows = 0;
    int64_t nCols = 0;
};

} // namespace engine
} // namespace dtc

#endif // DTC_HOST_ENGINE_PREPARED_DENSE_H
