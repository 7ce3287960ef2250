#include "runtime/guard.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/cancel.h"
#include "common/check.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/fault_sites.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/reference.h"
#include "obs/metrics.h"

namespace dtc {
namespace runtime {
namespace guard {

namespace {

constexpr double kDefaultSample = 0.01;

/** Sampled rows per parallelFor chunk of the check. */
constexpr int64_t kSampleGrain = 8;

/**
 * Cached enablement so the disabled hot path is one relaxed load:
 * -1 unresolved, 0 disabled, 1 enabled.  The fraction itself lives in
 * a separate atomic; it is only read after the enablement probe.
 */
std::atomic<int> gEnabled{-1};
std::atomic<double> gFraction{kDefaultSample};

double
resolveFromEnv()
{
    const auto v =
        env::readDouble("DTC_GUARD_SAMPLE", 0.0, 1.0);
    const double f = v ? *v : kDefaultSample;
    gFraction.store(f, std::memory_order_relaxed);
    gEnabled.store(f > 0.0 ? 1 : 0, std::memory_order_relaxed);
    return f;
}

} // namespace

bool
enabled()
{
    const int e = gEnabled.load(std::memory_order_relaxed);
    if (e >= 0)
        return e != 0;
    return resolveFromEnv() > 0.0;
}

double
sampleFraction()
{
    if (gEnabled.load(std::memory_order_relaxed) < 0)
        return resolveFromEnv();
    return gFraction.load(std::memory_order_relaxed);
}

void
setSampleFraction(double f)
{
    if (f < 0.0) {
        gEnabled.store(-1, std::memory_order_relaxed);
        return;
    }
    gFraction.store(f, std::memory_order_relaxed);
    gEnabled.store(f > 0.0 ? 1 : 0, std::memory_order_relaxed);
}

GuardResult
checkSampledRows(const CsrMatrix& a, const DenseMatrix& b,
                 const DenseMatrix& c, Precision p,
                 const GuardOptions& opt)
{
    DTC_CHECK(a.cols() == b.rows());
    DTC_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
    DTC_FAULT_POINT(fault::sites::kRuntimeGuardCheck);

    GuardResult res;
    const double frac =
        opt.sampleFraction < 0.0 ? sampleFraction()
                                 : opt.sampleFraction;
    const int64_t rows = a.rows();
    if (frac <= 0.0 || rows == 0 || b.cols() == 0)
        return res;
    // At least one row whenever the guard is on and there is output.
    const int64_t want = std::min<int64_t>(
        rows, std::max<int64_t>(
                  1, static_cast<int64_t>(std::llround(
                         frac * static_cast<double>(rows)))));

    Rng rng(opt.seed ^ (static_cast<uint64_t>(rows) << 20) ^
            static_cast<uint64_t>(b.cols()));
    std::vector<uint64_t> sample = rng.sampleWithoutReplacement(
        static_cast<uint64_t>(rows), static_cast<uint64_t>(want));
    std::sort(sample.begin(), sample.end());

    static obs::Counter& checks =
        obs::metrics::counter("runtime.guard.checks");
    static obs::Counter& rows_checked =
        obs::metrics::counter("runtime.guard.rows");
    checks.add(1);
    rows_checked.add(static_cast<uint64_t>(sample.size()));

    // Sampled rows are judged in parallel chunks; each writes only
    // its own rows' verdict slots, and the serial pass below folds
    // them in row order, so the result is the same at every thread
    // count.
    struct Verdict
    {
        bool bad = false;
        int64_t col = 0;
        double got = 0.0, want = 0.0, tol = 0.0;
    };
    std::vector<Verdict> verdicts(sample.size());
    const int64_t n = b.cols();
    parallelFor(0, static_cast<int64_t>(sample.size()), kSampleGrain,
                [&](int64_t s_lo, int64_t s_hi) {
        std::vector<double> acc(static_cast<size_t>(n));
        // Per-column running max|b|: a scalar max carried across j
        // would keep the j loop from vectorizing.  Max is exact, so
        // folding the columns once per row gives the same bound.
        std::vector<double> bmax(static_cast<size_t>(n));
        double* __restrict accp = acc.data();
        double* __restrict bmaxp = bmax.data();
        for (int64_t s = s_lo; s < s_hi; ++s) {
            cancel::poll(); // deadline coverage for the guard phase
            const int64_t r = static_cast<int64_t>(sample[s]);
            std::fill(acc.begin(), acc.end(), 0.0);
            std::fill(bmax.begin(), bmax.end(), 0.0);
            double row_abs_sum = 0.0;
            const int64_t lo = a.rowPtr()[r];
            const int64_t hi = a.rowPtr()[r + 1];
            for (int64_t k = lo; k < hi; ++k) {
                const double v = a.values()[k];
                row_abs_sum += std::fabs(v);
                const float* brow = b.row(a.colIdx()[k]);
                for (int64_t j = 0; j < n; ++j) {
                    const double bj = brow[j];
                    accp[j] += v * bj;
                    bmaxp[j] = std::max(bmaxp[j], std::fabs(bj));
                }
            }
            double max_abs_b = 0.0;
            for (int64_t j = 0; j < n; ++j)
                max_abs_b = std::max(max_abs_b, bmaxp[j]);
            const double tol = spmmRowErrorBound(
                p, hi - lo, row_abs_sum, max_abs_b, opt.safety);
            for (int64_t j = 0; j < n; ++j) {
                const double got = c.at(r, j);
                if (!(std::fabs(got - accp[j]) <= tol)) { // catches NaN
                    // One mismatch per row is enough.
                    verdicts[static_cast<size_t>(s)] = {true, j, got,
                                                        accp[j], tol};
                    break;
                }
            }
        }
    });
    for (size_t s = 0; s < sample.size(); ++s) {
        const Verdict& v = verdicts[s];
        if (!v.bad)
            continue;
        ++res.mismatches;
        if (res.firstBadRow < 0) {
            res.firstBadRow = static_cast<int64_t>(sample[s]);
            std::ostringstream os;
            os << "guard mismatch at (" << res.firstBadRow << ","
               << v.col << "): got " << v.got << ", want " << v.want
               << " +- " << v.tol;
            res.detail = os.str();
        }
    }
    res.rowsChecked = static_cast<int64_t>(sample.size());
    if (res.mismatches > 0) {
        static obs::Counter& mismatches =
            obs::metrics::counter("runtime.guard.mismatches");
        mismatches.add(static_cast<uint64_t>(res.mismatches));
    }
    return res;
}

} // namespace guard
} // namespace runtime
} // namespace dtc
