/**
 * @file
 * Input-adaptive kernel tuner.
 *
 * The paper's Selector chooses *within* DTC-SpMM (base vs balanced).
 * Deployments also face the outer question — which SpMM library to
 * use for a given matrix at all (cf. the paper's Section 6 closing:
 * lighter-weight systems win when the matrix changes every call,
 * and "heuristic adaptability to input dynamics" is its own line of
 * work [6]).  The tuner answers it the same way the Selector does:
 * by *simulating* every candidate on the cost model and ranking,
 * amortizing one-time conversion cost over the expected number of
 * SpMM executions.
 *
 * Costing a candidate means preparing it, so the tuner keeps the
 * prepared kernel of the best entry so far and drops it as soon as a
 * later entry beats it (at most two prepared kernels are alive while
 * tuning).  The winner's kernel rides on the ranking's best entry;
 * a Runtime built from the ranking adopts it instead of preparing the
 * same format again.
 *
 * A tune at a requested operand precision builds every candidate with
 * makeKernelAt(kind, precision): a kind that cannot express it (a
 * CUDA-core kernel at Tf32, TC-GNN at Fp32) becomes a refused
 * Unsupported entry, and a DTC kernel at Fp32 refuses in prepare(),
 * so only kernels the request can run are prepared and ranked.
 */
#ifndef DTC_TUNER_TUNER_H
#define DTC_TUNER_TUNER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "gpusim/cost_model.h"
#include "kernels/kernel.h"
#include "matrix/csr.h"

namespace dtc {

/** Tuning request. */
struct TuneRequest
{
    int64_t denseWidth = 128;

    /**
     * Expected SpMM executions over the matrix's lifetime; one-time
     * conversion cost is divided by this (iterative workloads make
     * heavy formats worthwhile, single-shot ones do not).
     */
    int64_t iterations = 1000;

    /** Candidate kernels (empty = the default general-SpMM set). */
    std::vector<KernelKind> candidates;
};

/** One candidate's evaluation. */
struct TuneEntry
{
    KernelKind kind;
    std::string name;
    bool supported = false;
    std::string reason;          ///< Skip reason if unsupported.
    /** Taxonomy code behind the skip (Internal if none applies). */
    ErrorCode refusal = ErrorCode::Internal;
    double spmmMs = 0.0;         ///< Simulated per-execution time.
    double conversionMs = 0.0;   ///< Simulated one-time conversion.
    double amortizedMs = 0.0;    ///< spmm + conversion/iterations.
    /** Operand precision the candidate was built and costed at. */
    Precision precision = Precision::Fp32;
    /**
     * The prepared kernel; set on the best supported entry only (see
     * file comment), null on every other entry.
     */
    std::shared_ptr<const SpmmKernel> kernel;
};

/** Tuning outcome: entries sorted by amortized time, best first. */
struct TuneResult
{
    std::vector<TuneEntry> entries;

    /**
     * True when no requested candidate survived and the tuner
     * appended the terminal cuSPARSE-like fallback so best() still
     * returns a runnable kernel.
     */
    bool fallbackAppended = false;

    /**
     * The winning entry.  Guaranteed to exist for any tuneSpmm()
     * result (the tuner appends a terminal fallback when every
     * requested candidate is refused); throws a typed
     * DtcError(Unsupported) listing per-candidate reasons only if
     * even the fallback was refused.
     */
    const TuneEntry& best() const;

    /**
     * The supported entries in rank order (best first; possibly
     * empty).  This is the reroute chain the resilient runtime walks
     * when a kernel fails or its breaker is open.
     */
    std::vector<TuneEntry> supportedEntries() const;
};

/** Default candidate set for general SpMM. */
std::vector<KernelKind> defaultTuneCandidates();

/**
 * Evaluates every candidate kernel on @p m under @p cm and ranks by
 * amortized per-execution time.  With @p precision set, candidates
 * are built at that operand precision and kinds that cannot run it
 * are refused; unset keeps every kind at its native precision.
 */
TuneResult tuneSpmm(const CsrMatrix& m, const TuneRequest& request,
                    const CostModel& cm,
                    std::optional<Precision> precision = std::nullopt);

} // namespace dtc

#endif // DTC_TUNER_TUNER_H
