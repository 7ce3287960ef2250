/**
 * @file
 * The engine-free naive reference the benchmark judges outputs with.
 *
 * Two plain loops that share no code with the library's engine: a
 * double-accumulation SpMM, and a rounded SpMM with FP32 accumulation
 * in per-row ascending-column order (separate multiply then add) —
 * the numerics every kernel whose traits declare bitExactRounded
 * promises bit for bit.  Other results are judged against the
 * double loop within the oracle's analytic per-row bound
 * (spmmRowErrorBound in kernels/reference.h).
 */
#ifndef PERFBENCH_NAIVE_REF_H
#define PERFBENCH_NAIVE_REF_H

#include <string>

#include "common/precision.h"
#include "matrix/csr.h"
#include "matrix/dense.h"

namespace perfbench {

/**
 * Checks @p c == A * @p b as produced by the kernel named
 * @p kernel_name (a registry display name, or the runtime's
 * reference fallback) at precision @p p.  Returns "" when the output
 * conforms, else a description of the first bad element.
 */
std::string checkSpmm(const dtc::CsrMatrix& a, const dtc::DenseMatrix& b,
                      const dtc::DenseMatrix& c,
                      const std::string& kernel_name, dtc::Precision p);

} // namespace perfbench

#endif // PERFBENCH_NAIVE_REF_H
