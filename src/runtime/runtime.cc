#include "runtime/runtime.h"

#include <limits>

#include "common/cancel.h"
#include "common/check.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/fault_sites.h"
#include "kernels/reference.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtc {
namespace runtime {

namespace {

/** True for failure codes worth retrying on the same kernel. */
bool
isTransient(ErrorCode code)
{
    return code == ErrorCode::ResourceExhausted;
}

/** True for codes that must unwind immediately (not kernel faults). */
bool
isAbort(ErrorCode code)
{
    return code == ErrorCode::DeadlineExceeded ||
           code == ErrorCode::Cancelled;
}

} // namespace

std::shared_ptr<const TuneResult>
Runtime::tune(const CsrMatrix& a, const TuneRequest& request,
              const CostModel& cm, std::optional<Precision> precision)
{
    DTC_TRACE_SCOPE("runtime.tune");
    return std::make_shared<const TuneResult>(
        tuneSpmm(a, request, cm, precision));
}

Runtime::Runtime(const CsrMatrix& a_in, const CostModel& cm,
                 RuntimeOptions options, BreakerRegistry* breakers)
    : a(a_in), opt(std::move(options))
{
    tuned = tune(a, opt.tune, cm, opt.precision);
    initFromTuned(breakers);
}

Runtime::Runtime(const CsrMatrix& a_in,
                 std::shared_ptr<const TuneResult> tuned_in,
                 RuntimeOptions options, BreakerRegistry* breakers)
    : a(a_in), opt(std::move(options)), tuned(std::move(tuned_in))
{
    DTC_CHECK_MSG(tuned != nullptr, "tuned state must be non-null");
    initFromTuned(breakers);
}

void
Runtime::initFromTuned(BreakerRegistry* breakers)
{
    for (const TuneEntry& e : tuned->supportedEntries()) {
        // A requested precision narrows the chain to kinds that can
        // express it; the rest would only die at prepare() anyway.
        if (opt.precision &&
            !kernelSupportsPrecision(e.kind, *opt.precision))
            continue;
        Candidate c;
        c.kind = e.kind;
        c.name = e.name;
        c.precision = opt.precision
                          ? *opt.precision
                          : kernelTraits(e.kind).nativePrecision;
        // The tuner's prepared winner, when it runs at this
        // candidate's precision (see the class comment).
        if (e.kernel && e.precision == c.precision)
            c.kernel = e.kernel;
        candidates.push_back(std::move(c));
    }
    // Even "nothing supported" leaves the reference fallback, so the
    // runtime itself never refuses to construct.
    if (breakers) {
        breg = breakers;
    } else {
        ownedBreakers = std::make_unique<BreakerRegistry>(opt.breaker);
        breg = ownedBreakers.get();
    }
}

const SpmmKernel*
Runtime::preparedKernel(Candidate& cand, RunReport& rep)
{
    if (cand.dead)
        return nullptr;
    if (cand.kernel)
        return cand.kernel.get();
    DTC_TRACE_SCOPE("runtime.prepare");
    std::unique_ptr<SpmmKernel> kernel =
        opt.precision ? makeKernelAt(cand.kind, *opt.precision)
                      : makeKernel(cand.kind);
    if (!kernel) {
        cand.dead = true;
        RunAttempt att;
        att.kernel = cand.name;
        att.code = ErrorCode::Unsupported;
        att.detail = "kind cannot express requested precision";
        rep.failures.push_back(std::move(att));
        return nullptr;
    }
    const Refusal r = kernel->prepare(a);
    if (!r.ok()) {
        // A refusal is the kernel's *modeled answer* for this matrix;
        // it will not change on retry — drop the candidate for good.
        cand.dead = true;
        RunAttempt att;
        att.kernel = cand.name;
        att.code = r.code;
        att.detail = "prepare refused: " + r.reason;
        rep.failures.push_back(std::move(att));
        return nullptr;
    }
    cand.kernel = std::move(kernel);
    return cand.kernel.get();
}

void
Runtime::run(const DenseMatrix& b, DenseMatrix& c, RunReport* report)
{
    DTC_TRACE_SCOPE("runtime.run");
    DTC_CHECK_MSG(a.cols() == b.rows(),
                  "B has " << b.rows() << " rows, want " << a.cols());
    DTC_CHECK_MSG(c.rows() == a.rows() && c.cols() == b.cols(),
                  "C is " << c.rows() << "x" << c.cols() << ", want "
                          << a.rows() << "x" << b.cols());

    // Deadline token for the whole pipeline.  When neither a
    // wall-clock deadline nor the deterministic check-count hook is
    // armed, leave whatever token the caller installed in place.
    CancelToken token;
    int64_t deadline_ms = opt.deadlineMs;
    if (deadline_ms < 0) {
        const auto env_ms = env::readInt64(
            "DTC_DEADLINE_MS", 0, std::numeric_limits<int64_t>::max());
        deadline_ms = env_ms ? *env_ms : 0;
    }
    if (deadline_ms > 0)
        token.setDeadlineInMs(static_cast<double>(deadline_ms));
    if (opt.deadlineChecks > 0)
        token.expireAfterChecks(opt.deadlineChecks);
    const bool own_token = deadline_ms > 0 || opt.deadlineChecks > 0;
    cancel::ScopedCancel scope(own_token ? &token : cancel::current());

    static obs::Counter& runs = obs::metrics::counter("runtime.runs");
    runs.add(1);
    obs::ScopedTimerMs run_timer("runtime.run_ms");

    RunReport rep;
    // Two passes over the tuner's ranking: first honouring breakers,
    // then — if every closed/half-open path failed — forcing a probe
    // through open breakers rather than failing a servable request.
    for (const bool forced : {false, true}) {
        for (Candidate& cand : candidates) {
            cancel::poll();
            if (cand.dead)
                continue;
            CircuitBreaker& br = breg->forKernel(cand.name);
            if (!forced && !br.allow())
                continue; // quarantined: reroute to next-best
            const SpmmKernel* kernel = preparedKernel(cand, rep);
            if (!kernel) {
                if (!forced)
                    br.onFailure();
                continue;
            }
            for (int attempt = 1; attempt <= kMaxAttemptsPerKernel;
                 ++attempt) {
                cancel::poll();
                ++rep.attempts;
                try {
                    DTC_TRACE_SCOPE("runtime.compute");
                    const double t0 = obs::monotonicNowUs();
                    DTC_FAULT_POINT(fault::sites::kRuntimeCompute);
                    kernel->compute(b, c);
                    obs::metrics::histogram("runtime.kernel_ms." +
                                            cand.name)
                        .record((obs::monotonicNowUs() - t0) / 1e3);
                } catch (const DtcError& err) {
                    if (isAbort(err.code()))
                        throw; // not the kernel's fault; no retry
                    RunAttempt att;
                    att.kernel = cand.name;
                    att.code = err.code();
                    att.detail = err.what();
                    rep.failures.push_back(std::move(att));
                    br.onFailure();
                    if (isTransient(err.code()) &&
                        attempt < kMaxAttemptsPerKernel &&
                        br.state() == CircuitBreaker::State::Closed) {
                        ++rep.retries;
                        continue; // same kernel, next attempt
                    }
                    break; // reroute to next candidate
                }

                if (opt.postComputeHook)
                    opt.postComputeHook(cand.name, c);

                // Online result validation.  The disabled probe is
                // one relaxed atomic load (guard::enabled()).
                const bool guard_on =
                    opt.guard.sampleFraction < 0.0
                        ? guard::enabled()
                        : opt.guard.sampleFraction > 0.0;
                if (guard_on) {
                    DTC_TRACE_SCOPE("runtime.guard");
                    const guard::GuardResult g =
                        guard::checkSampledRows(a, b, c,
                                                cand.precision,
                                                opt.guard);
                    rep.guardRowsChecked += g.rowsChecked;
                    if (!g.ok()) {
                        RunAttempt att;
                        att.kernel = cand.name;
                        att.code = ErrorCode::CorruptData;
                        att.detail = g.detail;
                        att.guardMismatch = true;
                        rep.failures.push_back(std::move(att));
                        br.onFailure();
                        ++rep.reexecs;
                        obs::metrics::counter("runtime.guard.reexecs")
                            .add(1);
                        break; // full re-execution on next candidate
                    }
                }
                br.onSuccess();
                rep.kernel = cand.name;
                rep.precision = cand.precision;
                if (report)
                    *report = std::move(rep);
                return;
            }
        }
    }

    // Every registry kernel failed (or none was supported): the
    // double-accumulation reference is the terminal authority.  It
    // still honours the deadline via parallelFor/engine polls.
    {
        DTC_TRACE_SCOPE("runtime.reference_fallback");
        obs::metrics::counter("runtime.reference_fallbacks").add(1);
        referenceSpmm(a, b, c);
        ++rep.attempts;
        rep.kernel = "reference(double)";
        rep.usedReferenceFallback = true;
    }
    if (report)
        *report = std::move(rep);
}

DenseMatrix
Runtime::run(const DenseMatrix& b)
{
    // Every path below writes all of C (the kernels zero their own
    // rows, the reference fallback overwrites it).
    DenseMatrix c = DenseMatrix::uninitialized(a.rows(), b.cols());
    run(b, c, nullptr);
    return c;
}

void
runWithDeadline(const CsrMatrix& a, const DenseMatrix& b,
                DenseMatrix& c, const CostModel& cm,
                int64_t deadline_ms, RunReport* report)
{
    RuntimeOptions opt;
    opt.deadlineMs = deadline_ms;
    Runtime rt(a, cm, std::move(opt));
    rt.run(b, c, report);
}

} // namespace runtime
} // namespace dtc
