#include "tuner/tuner.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/fault.h"
#include "common/fault_sites.h"
#include "formats/convert_cost.h"
#include "obs/metrics.h"

namespace dtc {

const TuneEntry&
TuneResult::best() const
{
    for (const TuneEntry& e : entries) {
        if (e.supported)
            return e;
    }
    // tuneSpmm() appends a terminal fallback, so this only triggers
    // when even the fallback was refused.  Surface every candidate's
    // skip reason so the caller can tell *why* nothing runs.
    std::ostringstream os;
    os << "no supported candidate kernel";
    for (const TuneEntry& e : entries)
        os << "; " << e.name << ": " << e.reason;
    throw DtcError(ErrorCode::Unsupported, os.str(),
                   ErrorContext{.component = "tuner"});
}

std::vector<TuneEntry>
TuneResult::supportedEntries() const
{
    std::vector<TuneEntry> out;
    for (const TuneEntry& e : entries)
        if (e.supported)
            out.push_back(e);
    return out;
}

std::vector<KernelKind>
defaultTuneCandidates()
{
    return {
        KernelKind::Dtc,      KernelKind::CuSparse,
        KernelKind::Sputnik,  KernelKind::SparseTir,
        KernelKind::Tcgnn,
    };
}

namespace {

/** One-time conversion cost of a kernel's storage format. */
double
conversionCost(KernelKind kind, const CsrMatrix& m,
               const CostModel& cm)
{
    switch (kind) {
      case KernelKind::Dtc:
      case KernelKind::DtcBase:
      case KernelKind::DtcBalanced:
        return meTcfConversionCost(m, cm).timeMs;
      case KernelKind::Tcgnn:
        // TC-GNN converts on the CPU (paper Section 6).
        return tcgnnCpuConversionMs(m);
      case KernelKind::CuSparse:
        return 0.0; // consumes CSR directly
      default: {
        // Other formats: one streaming rewrite of the matrix.
        const double bytes = static_cast<double>(m.nnz()) * 12.0;
        return bytes / (cm.arch().dramBwGBps * 1e9) * 1e3 * 3.0;
      }
    }
}

/** One evaluated candidate and, if it was supported, its kernel. */
struct Evaluated
{
    TuneEntry entry;
    std::unique_ptr<SpmmKernel> kernel;
};

/**
 * Evaluates one candidate.  Never propagates: a refusal or a thrown
 * error becomes an unsupported entry with the skip reason and
 * taxonomy code recorded, so one faulty kernel cannot sink the whole
 * tuning pass.
 */
Evaluated
evaluateCandidate(KernelKind kind, const CsrMatrix& m,
                  const TuneRequest& request, const CostModel& cm,
                  std::optional<Precision> precision)
{
    Evaluated out;
    TuneEntry& entry = out.entry;
    entry.kind = kind;
    entry.name = kernelKindName(kind);
    entry.precision =
        precision.value_or(kernelTraits(kind).nativePrecision);
    DTC_TRACE_SCOPE("tuner.candidate");
    static obs::Counter& evaluated =
        obs::metrics::counter("tuner.candidates_evaluated");
    static obs::Counter& refusals =
        obs::metrics::counter("tuner.refusals");
    evaluated.add(1);
    try {
        DTC_FAULT_POINT(fault::sites::kTunerPrepare);
        std::unique_ptr<SpmmKernel> kernel =
            precision ? makeKernelAt(kind, *precision)
                      : makeKernel(kind);
        if (!kernel) {
            entry.refusal = ErrorCode::Unsupported;
            entry.reason = "kind cannot express requested precision";
            refusals.add(1);
            return out;
        }
        const Refusal r = kernel->prepare(m);
        if (!r.ok()) {
            entry.refusal = r.code;
            entry.reason = r.reason;
            refusals.add(1);
            return out;
        }
        entry.spmmMs = kernel->cost(request.denseWidth, cm).timeMs;
        entry.conversionMs = conversionCost(kind, m, cm);
        entry.amortizedMs =
            entry.spmmMs +
            entry.conversionMs /
                static_cast<double>(request.iterations);
        entry.supported = true;
        out.kernel = std::move(kernel);
    } catch (const DtcError& e) {
        entry.supported = false;
        entry.refusal = e.code();
        entry.reason = e.what();
        refusals.add(1);
    } catch (const std::exception& e) {
        entry.supported = false;
        entry.refusal = ErrorCode::Internal;
        entry.reason = e.what();
        refusals.add(1);
    }
    return out;
}

} // namespace

TuneResult
tuneSpmm(const CsrMatrix& m, const TuneRequest& request,
         const CostModel& cm, std::optional<Precision> precision)
{
    DTC_CHECK(request.denseWidth > 0 && request.iterations > 0);
    DTC_TRACE_SCOPE("tuner.tune");
    obs::ScopedTimerMs timer("tuner.tune_ms");
    // Full-tuner invocations, distinct from per-candidate tallies:
    // the serving layer's warm path must leave this flat (see
    // Runtime::tune and serve::PreparedCache).
    static obs::Counter& tunes = obs::metrics::counter("tuner.tunes");
    tunes.add(1);
    const std::vector<KernelKind> candidates =
        request.candidates.empty() ? defaultTuneCandidates()
                                   : request.candidates;

    // The best supported entry so far keeps its prepared kernel; a
    // strictly faster later entry replaces it, which matches the
    // stable sort below (ties keep the earlier entry).
    TuneResult result;
    std::unique_ptr<SpmmKernel> best_kernel;
    size_t best = 0;
    auto add = [&](Evaluated ev) {
        if (ev.entry.supported &&
            (!best_kernel ||
             ev.entry.amortizedMs < result.entries[best].amortizedMs)) {
            best_kernel = std::move(ev.kernel);
            best = result.entries.size();
        }
        result.entries.push_back(std::move(ev.entry));
    };
    for (KernelKind kind : candidates)
        add(evaluateCandidate(kind, m, request, cm, precision));

    if (!best_kernel) {
        // Graceful degradation: every requested candidate was
        // refused, so append the terminal fallback — the
        // cuSPARSE-like kernel consumes CSR directly and supports
        // any well-formed matrix (at Fp32: a tune at another
        // precision refuses it too).  best() then still returns a
        // runnable kernel instead of throwing.
        Evaluated fb = evaluateCandidate(KernelKind::CuSparse, m,
                                         request, cm, precision);
        if (fb.entry.supported) {
            fb.entry.name += " (terminal fallback)";
            result.fallbackAppended = true;
            add(std::move(fb));
            obs::metrics::counter("tuner.fallbacks_appended").add(1);
        }
    }
    if (best_kernel)
        result.entries[best].kernel = std::move(best_kernel);

    std::stable_sort(result.entries.begin(), result.entries.end(),
                     [](const TuneEntry& a, const TuneEntry& b) {
                         if (a.supported != b.supported)
                             return a.supported;
                         return a.amortizedMs < b.amortizedMs;
                     });
    DTC_ASSERT(result.entries.empty() || !result.entries[0].supported ||
               result.entries[0].kernel);
    return result;
}

} // namespace dtc
