/**
 * @file
 * The resilient execution layer — the single entry point examples,
 * benches, and deployments route SpMM through.
 *
 * Runtime wraps the kernel registry, the tuner, and the host engine
 * behind one call that survives the failure modes a long-lived
 * service actually meets:
 *
 *   - Deadlines & cancellation: run() installs a CancelToken for the
 *     whole prepare/compute/guard pipeline (DTC_DEADLINE_MS or
 *     RuntimeOptions::deadlineMs); parallelFor chunk boundaries and
 *     the engine's column-panel loops poll it, so an over-deadline
 *     SpMM aborts mid-flight with DtcError{DeadlineExceeded} and no
 *     leaked state.
 *   - Retry + circuit breaker: transient ResourceExhausted failures
 *     retry the same kernel at once, up to kMaxAttemptsPerKernel
 *     attempts; persistent failures trip the kernel's CircuitBreaker
 *     (runtime/breaker.h) and the request reroutes to the tuner's
 *     next-best candidate.  This is the
 *     paper's Selector-fallback idea (Section 6) lifted from "pick a
 *     strategy per matrix" to "pick a survivor per request".
 *   - Online result validation: the sampled-row guard
 *     (runtime/guard.h) recomputes ~1% of output rows; a mismatch
 *     counts as a kernel failure and triggers full re-execution on
 *     the next candidate.  The double-accumulation reference is the
 *     terminal authority when every registry kernel is exhausted.
 *
 * Deadline/cancel errors are never retried and never feed the
 * breaker — an expired budget says nothing about the kernel.
 */
#ifndef DTC_RUNTIME_RUNTIME_H
#define DTC_RUNTIME_RUNTIME_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "gpusim/cost_model.h"
#include "kernels/kernel.h"
#include "matrix/csr.h"
#include "matrix/dense.h"
#include "runtime/breaker.h"
#include "runtime/guard.h"
#include "tuner/tuner.h"

namespace dtc {
namespace runtime {

/**
 * Attempts per kernel for *transient* (ResourceExhausted) failures;
 * other failure codes reroute immediately.  Retries follow at once,
 * with no sleep in between.
 */
constexpr int kMaxAttemptsPerKernel = 3;

/** Knobs for one Runtime instance. */
struct RuntimeOptions
{
    /** Tuner request (candidates, dense width, iteration horizon). */
    TuneRequest tune;

    /** Breaker thresholds for breakers this runtime creates. */
    BreakerOptions breaker;

    /** Guard knobs; sampleFraction < 0 defers to DTC_GUARD_SAMPLE. */
    guard::GuardOptions guard;

    /**
     * Deadline for each run() in ms; < 0 defers to DTC_DEADLINE_MS,
     * 0 means none.
     */
    int64_t deadlineMs = -1;

    /**
     * Requested operand precision: candidates are instantiated with
     * makeKernelAt(kind, *precision), and kinds that cannot express
     * it are dropped (typed Unsupported failure entry, no retry).
     * Unset keeps every kernel at its native precision.  The serving
     * layer sets this so one (A, precision) cache entry reroutes only
     * among kernels that honour the tenant's requested precision.
     */
    std::optional<Precision> precision;

    /**
     * Deterministic test hook: trip the deadline on the n-th
     * cancellation poll instead of wall-clock (0 = off).
     */
    int64_t deadlineChecks = 0;

    /**
     * Test seam: called after each successful compute() with the
     * kernel's display name and the output, *before* the guard runs.
     * Guard tests use it to emulate a kernel silently producing wrong
     * bits; never set in production.
     */
    std::function<void(const std::string& kernel, DenseMatrix& c)>
        postComputeHook;
};

/** One failed attempt, for diagnostics. */
struct RunAttempt
{
    std::string kernel;
    ErrorCode code = ErrorCode::Internal;
    std::string detail;
    bool guardMismatch = false; ///< Failure was a guard rejection.
};

/** What one run() did. */
struct RunReport
{
    std::string kernel;      ///< Kernel that produced the result.
    /** Numeric precision of the winning path (Fp32 for fallback). */
    Precision precision = Precision::Fp32;
    int attempts = 0;        ///< Total compute attempts.
    int retries = 0;         ///< Transient-failure retries.
    int reexecs = 0;         ///< Guard-forced re-executions.
    int64_t guardRowsChecked = 0;
    bool usedReferenceFallback = false; ///< Terminal double-acc path.
    std::vector<RunAttempt> failures;   ///< Every failed attempt.
};

/**
 * Resilient SpMM executor bound to one sparse matrix (see file
 * comment).  Construction tunes the candidate set on @p cm — or, via
 * the tuned-state constructor, reuses a ranking computed once by
 * tune() so an identical (registry, matrix) pair never re-runs the
 * tuner per request (the serving layer's prepared-kernel cache keys
 * on exactly that).
 *
 * Kernel hand-off: the ranking's best entry carries the kernel the
 * tuner prepared to cost it.  A candidate whose run precision equals
 * that entry's precision adopts the kernel — shared, since compute()
 * is const and kernels keep no mutable state — so tune plus the first
 * run prepares the winner once.  Every other candidate (and the best
 * one at a different precision) prepares its own kernel on first use.
 *
 * Thread-compatible: concurrent run() calls on one instance are not
 * supported (the breaker registry is thread-safe, the per-candidate
 * kernel slots are not).  Runtimes built from one TuneResult may run
 * concurrently.
 */
class Runtime
{
  public:
    /**
     * @param a         the sparse operand (copied)
     * @param cm        cost model for tuning
     * @param opt       runtime knobs
     * @param breakers  breaker registry; nullptr = a registry private
     *                  to this Runtime built from opt.breaker
     */
    Runtime(const CsrMatrix& a, const CostModel& cm,
            RuntimeOptions opt = {},
            BreakerRegistry* breakers = nullptr);

    /**
     * Constructs from tuned state computed once by tune(): no tuner
     * run, no cost-model walk — the reusable half of construction the
     * serving layer amortizes across requests.  @p tuned must be the
     * result of tune() on an identical matrix + candidate set
     * (checked only by size/shape plausibility, not re-derived).
     */
    Runtime(const CsrMatrix& a,
            std::shared_ptr<const TuneResult> tuned,
            RuntimeOptions opt = {},
            BreakerRegistry* breakers = nullptr);

    /**
     * Runs the tuner once for @p a and returns the shareable ranking;
     * feed it to any number of Runtime instances (or the same one
     * reconstructed later) to skip re-tuning.  Pass the
     * RuntimeOptions::precision the runtimes will run at, so the
     * tuner prepares and ranks only kernels that can run it (see
     * tuneSpmm).
     */
    static std::shared_ptr<const TuneResult>
    tune(const CsrMatrix& a, const TuneRequest& request,
         const CostModel& cm,
         std::optional<Precision> precision = std::nullopt);

    /**
     * C = A * B with deadline, retry, breaker rerouting, and guard
     * validation.  @p c must be a.rows() x b.cols().  Throws
     * DtcError{DeadlineExceeded|Cancelled} on an expired budget and
     * DtcError{Unsupported} when every candidate (and the reference
     * fallback) failed.
     */
    void run(const DenseMatrix& b, DenseMatrix& c,
             RunReport* report = nullptr);

    /** Allocating convenience overload. */
    DenseMatrix run(const DenseMatrix& b);

    /** The tuner's ranking this runtime routes over. */
    const TuneResult& tuning() const { return *tuned; }

    /** The shareable tuned state (reusable via the tuned ctor). */
    std::shared_ptr<const TuneResult> tunedState() const
    {
        return tuned;
    }

    /** The breaker registry in use. */
    BreakerRegistry& breakers() { return *breg; }

    const RuntimeOptions& options() const { return opt; }

  private:
    struct Candidate
    {
        KernelKind kind;
        std::string name;
        Precision precision;
        /** Adopted from the tuner, else prepared on first use. */
        std::shared_ptr<const SpmmKernel> kernel;
        bool dead = false; ///< prepare() refused; never retried.
    };

    /** Prepares (once) and returns the kernel, or null if refused. */
    const SpmmKernel* preparedKernel(Candidate& cand, RunReport& rep);

    /** Builds candidates + breaker wiring from the tuned ranking. */
    void initFromTuned(BreakerRegistry* breakers);

    CsrMatrix a;
    RuntimeOptions opt;
    std::shared_ptr<const TuneResult> tuned;
    std::vector<Candidate> candidates; ///< Tuner rank order.
    std::unique_ptr<BreakerRegistry> ownedBreakers;
    BreakerRegistry* breg;
};

/**
 * One-shot convenience: C = A * B under a deadline of
 * @p deadline_ms milliseconds (0 = none), with default candidates.
 */
void runWithDeadline(const CsrMatrix& a, const DenseMatrix& b,
                     DenseMatrix& c, const CostModel& cm,
                     int64_t deadline_ms,
                     RunReport* report = nullptr);

} // namespace runtime
} // namespace dtc

#endif // DTC_RUNTIME_RUNTIME_H
