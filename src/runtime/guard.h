/**
 * @file
 * Online result validation ("the guard").
 *
 * After a kernel produces C = A*B, the guard recomputes a small,
 * deterministically sampled set of output rows with double
 * accumulation and judges each against the same analytic error bound
 * the conformance oracle uses (spmmRowErrorBound in
 * kernels/reference.h), except with a row-local max|b| — only the B
 * entries a row actually touches enter its error terms, so the bound
 * stays sound while being tighter than the oracle's global max.
 *
 * A mismatch means the kernel silently produced wrong bits — the
 * runtime then trips that kernel's breaker and re-executes the whole
 * request on the next-best candidate.
 *
 * The sampled rows are checked in parallelFor chunks; each chunk
 * records a per-row verdict and a serial pass folds them in row
 * order, so the GuardResult is identical at every thread count.  The
 * check is plain double loops: it never calls the engine or SIMD
 * code it judges.
 *
 * Cost model: checking fraction f of rows costs ~f of a full
 * double-accumulation reference SpMM — and that reference is several
 * times slower than the SIMD kernels it judges, so the guard's share
 * of a call is several times f, not f.  Measured at the default
 * f = 1%% (DTC_GUARD_SAMPLE) on a 4-core AVX-512 host, 4 threads, on
 * perfbench's traced iter_long_rows (26k rows, ~5.3M nnz, N=128):
 * ~2.2 ms per call against ~48 ms of compute (~4%%); run serially it
 * was ~11 ms (~23%%).  When disabled (f <= 0) the hot-path probe is a
 * single relaxed atomic load — measured by BM_RuntimeGuardOverhead in
 * bench_micro_host.
 *
 * Counters: runtime.guard.{checks,rows,mismatches} here;
 * runtime.guard.reexecs is tallied by the runtime when it re-runs.
 */
#ifndef DTC_RUNTIME_GUARD_H
#define DTC_RUNTIME_GUARD_H

#include <cstdint>
#include <string>

#include "common/precision.h"
#include "matrix/csr.h"
#include "matrix/dense.h"

namespace dtc {
namespace runtime {
namespace guard {

/** Guard tuning knobs. */
struct GuardOptions
{
    /**
     * Fraction of output rows to recompute, in [0, 1].  Negative
     * means "resolve from DTC_GUARD_SAMPLE, default 0.01"; zero
     * disables the guard.
     */
    double sampleFraction = -1.0;

    /** Safety factor on the analytic bound (oracle default is 8). */
    double safety = 8.0;

    /** Seed for the deterministic row sample. */
    uint64_t seed = 0x60a2dull;
};

/** Outcome of one guard pass. */
struct GuardResult
{
    int64_t rowsChecked = 0;
    int64_t mismatches = 0;
    int64_t firstBadRow = -1;
    std::string detail; ///< Human-readable first-mismatch description.

    bool ok() const { return mismatches == 0; }
};

/**
 * Fast enablement probe: one relaxed atomic load once the env has
 * been resolved.  True when the effective sample fraction is > 0.
 */
bool enabled();

/** The effective sample fraction (env-resolved, cached). */
double sampleFraction();

/**
 * Overrides the sample fraction (f <= 0 disables).  Passing a
 * negative value re-resolves from DTC_GUARD_SAMPLE.  Tests use this
 * to flip the guard without mutating the environment.
 */
void setSampleFraction(double f);

/**
 * Recomputes a deterministic sample of rows of @p c (expected to hold
 * A*B under precision @p p) and reports mismatches.  Never throws on
 * mismatch — callers decide policy.  Honours the fault site
 * runtime.guard.check.
 */
GuardResult checkSampledRows(const CsrMatrix& a, const DenseMatrix& b,
                             const DenseMatrix& c, Precision p,
                             const GuardOptions& opt = {});

} // namespace guard
} // namespace runtime
} // namespace dtc

#endif // DTC_RUNTIME_GUARD_H
