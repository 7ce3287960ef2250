/**
 * @file
 * Reference SpMM implementations — the correctness oracles.
 *
 * referenceSpmm accumulates in double precision (the "ground truth"
 * all kernels are compared against); referenceSpmmRounded applies the
 * requested operand rounding (TF32/BF16/FP16, or none for FP32) with
 * FP32 accumulation in per-row ascending-column order — the exact
 * numerics of every kernel in the registry except SparTA — so kernels
 * can be checked for bit-level agreement rather than tolerance.
 * referenceSpmmTf32 is the paper-precision shorthand.
 *
 * Both are deliberately naive row-parallel loops that never touch the
 * host engine (no PreparedDense, no SIMD table, no engine.* counters),
 * so the judge cannot share a bug with the code it judges.  They are
 * the only engine-free SpMM loops in the library.
 */
#ifndef DTC_KERNELS_REFERENCE_H
#define DTC_KERNELS_REFERENCE_H

#include "common/precision.h"
#include "matrix/csr.h"
#include "matrix/dense.h"

namespace dtc {

/** C = A * B with double accumulation, rounded to float at the end. */
void referenceSpmm(const CsrMatrix& a, const DenseMatrix& b,
                   DenseMatrix& c);

/**
 * C = A * B with both operands rounded to precision @p p and FP32
 * accumulation in per-row ascending-column order.
 */
void referenceSpmmRounded(const CsrMatrix& a, const DenseMatrix& b,
                          DenseMatrix& c, Precision p);

/** C = A * B with TF32 operand rounding and FP32 accumulation. */
void referenceSpmmTf32(const CsrMatrix& a, const DenseMatrix& b,
                       DenseMatrix& c);

/**
 * Analytic per-row error bound for one SpMM output row vs the
 * double-accumulation reference:
 *
 *     safety * (2u(p) + (len + 8) * eps32) * rowAbsSum * maxAbsB
 *
 * where u(p) is the operand-rounding unit roundoff, len the row's
 * nonzero count, rowAbsSum = sum_k |a_rk| and maxAbsB the largest
 * |b| element.  Shared by the conformance oracle (testing/oracle.cc)
 * and the runtime's online result guard (runtime/guard.cc) so both
 * judge with identical semantics.
 */
double spmmRowErrorBound(Precision p, int64_t row_len,
                         double row_abs_sum, double max_abs_b,
                         double safety);

} // namespace dtc

#endif // DTC_KERNELS_REFERENCE_H
