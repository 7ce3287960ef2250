/**
 * @file
 * Differential conformance oracle.
 *
 * One judgement procedure for every kernel in the registry, swept
 * across the axes that have historically hidden bugs: operand
 * precision (Fp32/Tf32/Bf16/Fp16), SIMD backend (ScopedSimdMode — the
 * detected ISA vs the portable Isa::Scalar backend) and thread count
 * (ScopedNumThreads).  Each kernel has one compute() path; the judge
 * is the naive, engine-free reference (kernels/reference.h).  For
 * each expressible combo the kernel either
 *
 *   - refuses the input with a structured Refusal (a PASS — refusing
 *     is modeled baseline behaviour, per the paper's Table 4), or
 *   - produces C = A * B that (a) lies within a precision-aware
 *     per-row error bound of the double-accumulation reference and
 *     (b) for every kernel whose traits declare bitExactRounded,
 *     matches referenceSpmmRounded bit for bit.
 *
 * Anything else — an exception, a wrong value, a mis-sized output — is
 * a FAILURE the fuzz driver hands to the shrinker.
 */
#ifndef DTC_TESTING_ORACLE_H
#define DTC_TESTING_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/precision.h"
#include "kernels/kernel.h"
#include "matrix/csr.h"
#include "matrix/dense.h"

namespace dtc {
namespace testing {

/** One input to judge: a sparse A plus the dense-operand settings. */
struct OracleCase
{
    CsrMatrix a;
    int64_t denseWidth = 16;
    uint64_t seed = 1; ///< Seeds B (and only B) deterministically.
    std::string label; ///< Human-readable provenance for reports.
};

/** Which slice of the combo space to sweep. */
struct OracleConfig
{
    /** Kernels to judge; empty means every registered kernel. */
    std::vector<KernelKind> kernels;

    std::vector<Precision> precisions = {Precision::Fp32,
                                         Precision::Tf32,
                                         Precision::Bf16,
                                         Precision::Fp16};

    /**
     * SIMD backend sweep: true pins the detected ISA backend, false
     * the portable Isa::Scalar backend.  Both must match the naive
     * reference bit for bit.
     */
    std::vector<bool> simdModes = {true, false};

    std::vector<int> threadCounts = {1, 4, 8};

    /** Multiplier on the analytic error bound (slack for reordering). */
    double toleranceSafety = 8.0;

    /**
     * Also run a simulated launch (kernel->cost) per prepared kernel
     * and fail on exceptions / negative or non-finite times.
     */
    bool checkCost = false;

    /** Narrows every axis to one value — the shrinker's view. */
    static OracleConfig single(KernelKind kind, Precision p,
                               bool simd_on, int threads);
};

/** Verdict for one (kernel, precision, simd, threads) combo. */
struct OracleOutcome
{
    enum class Status
    {
        Pass,    ///< Computed and matched the reference.
        Refused, ///< Structured Refusal — counted as conforming.
        Skipped, ///< Combo not expressible (makeKernelAt == nullptr).
        Failed,  ///< Wrong answer, mis-sized output, or exception.
    };

    KernelKind kind = KernelKind::CuSparse;
    Precision precision = Precision::Fp32;
    bool simdOn = true;
    int threads = 1;
    Status status = Status::Pass;
    std::string detail; ///< Refusal reason / failure description.

    /** "Flash-LLM(v1) @tf32 simd=detected threads=4: ..." */
    std::string describe() const;
};

/** Aggregate over one OracleCase. */
struct OracleReport
{
    std::vector<OracleOutcome> outcomes;
    int64_t passes = 0;
    int64_t refusals = 0;
    int64_t skips = 0;
    int64_t failures = 0;

    int64_t combos() const
    {
        return static_cast<int64_t>(outcomes.size());
    }

    bool ok() const { return failures == 0; }

    /** First failing outcome, or nullptr when ok(). */
    const OracleOutcome* firstFailure() const;

    /** One-line tally, e.g. "112 combos: 64 pass, 40 refused, ...". */
    std::string summary() const;
};

/**
 * Runs every configured combo against @p c.  Deterministic: the same
 * (case, config) always yields the same report.  Never throws for
 * kernel misbehaviour (that becomes a Failed outcome); throws only for
 * harness-level misuse (e.g. denseWidth < 0).
 */
OracleReport runOracle(const OracleCase& c, const OracleConfig& cfg);

/**
 * Judges one combo on (a, denseWidth, seed) and reports whether it
 * FAILS — the predicate shape the shrinker consumes.  @p detail, when
 * non-null, receives the failure description (empty on pass).
 */
bool comboFails(KernelKind kind, Precision p, bool simd_on,
                int threads, const CsrMatrix& a, int64_t dense_width,
                uint64_t seed,
                double tolerance_safety = 8.0,
                std::string* detail = nullptr);

/**
 * Same judgement the oracle applies, exposed for reuse: checks @p got
 * against the references for @p a x @p b at precision @p p.  Returns
 * an empty string on conformance, else the failure description.
 * @p bit_exact additionally requires bitwise equality with
 * referenceSpmmRounded.
 */
std::string judgeResult(const CsrMatrix& a, const DenseMatrix& b,
                        const DenseMatrix& got, Precision p,
                        bool bit_exact, double tolerance_safety);

/** Deterministic dense operand for (@p rows x @p cols, @p seed). */
DenseMatrix makeDenseOperand(int64_t rows, int64_t cols,
                             uint64_t seed);

} // namespace testing
} // namespace dtc

#endif // DTC_TESTING_ORACLE_H
