#include "naive_ref.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "kernels/kernel.h"
#include "kernels/reference.h"

namespace perfbench {
namespace {

using dtc::CsrMatrix;
using dtc::DenseMatrix;
using dtc::Precision;

/** Threads the check spreads rows over (it runs outside timing). */
constexpr int kCheckThreads = 4;

/** Runs @p fn(lo, hi, &msg) over row slices; first non-empty msg wins. */
template <typename Fn>
std::string
overRows(int64_t rows, Fn fn)
{
    std::vector<std::string> msgs(kCheckThreads);
    std::vector<std::thread> ts;
    const int64_t step = (rows + kCheckThreads - 1) / kCheckThreads;
    for (int t = 0; t < kCheckThreads; ++t) {
        const int64_t lo = std::min(rows, t * step);
        const int64_t hi = std::min(rows, lo + step);
        ts.emplace_back([&, t, lo, hi] { fn(lo, hi, msgs[t]); });
    }
    for (std::thread& t : ts)
        t.join();
    for (const std::string& m : msgs)
        if (!m.empty())
            return m;
    return "";
}

/** Bitwise: plain rounded loop, FP32 accumulation, ascending k. */
std::string
checkBitExact(const CsrMatrix& a, const DenseMatrix& b,
              const DenseMatrix& c, Precision p)
{
    const int64_t n = b.cols();
    const bool round = p != Precision::Fp32;
    // Rounding is elementwise, so rounding B once up front multiplies
    // exactly the floats a per-element rounding would.
    std::vector<float> rb(b.data(), b.data() + b.size());
    if (round)
        for (float& x : rb)
            x = dtc::roundToPrecision(x, p);
    return overRows(a.rows(), [&](int64_t lo, int64_t hi,
                                  std::string& msg) {
        std::vector<float> acc(static_cast<size_t>(n));
        for (int64_t r = lo; r < hi && msg.empty(); ++r) {
            std::fill(acc.begin(), acc.end(), 0.0f);
            for (int64_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1]; ++k) {
                const float v = round
                                    ? dtc::roundToPrecision(a.values()[k], p)
                                    : a.values()[k];
                const float* brow = rb.data() + a.colIdx()[k] * n;
                for (int64_t j = 0; j < n; ++j)
                    acc[j] += v * brow[j];
            }
            if (std::memcmp(acc.data(), c.row(r),
                            sizeof(float) * static_cast<size_t>(n)) != 0) {
                int64_t j = 0;
                while (std::memcmp(&acc[j], c.row(r) + j, sizeof(float)) == 0)
                    ++j;
                std::ostringstream os;
                os << "C[" << r << "][" << j << "] = " << c.row(r)[j]
                   << ", naive rounded reference " << acc[j]
                   << " (bitwise)";
                msg = os.str();
            }
        }
    });
}

/** Within the analytic bound of the plain double-accumulation loop. */
std::string
checkBounded(const CsrMatrix& a, const DenseMatrix& b,
             const DenseMatrix& c, Precision p)
{
    const int64_t n = b.cols();
    double max_abs_b = 0.0;
    for (size_t i = 0; i < b.size(); ++i)
        max_abs_b = std::max(max_abs_b, std::fabs(double(b.data()[i])));
    return overRows(a.rows(), [&](int64_t lo, int64_t hi,
                                  std::string& msg) {
        std::vector<double> acc(static_cast<size_t>(n));
        for (int64_t r = lo; r < hi && msg.empty(); ++r) {
            std::fill(acc.begin(), acc.end(), 0.0);
            double abs_sum = 0.0;
            for (int64_t k = a.rowPtr()[r]; k < a.rowPtr()[r + 1]; ++k) {
                const double v = a.values()[k];
                abs_sum += std::fabs(v);
                const float* brow = b.row(a.colIdx()[k]);
                for (int64_t j = 0; j < n; ++j)
                    acc[j] += v * static_cast<double>(brow[j]);
            }
            const double bound = dtc::spmmRowErrorBound(
                p, a.rowLength(r), abs_sum, max_abs_b, 8.0);
            for (int64_t j = 0; j < n; ++j) {
                const double got = c.row(r)[j];
                if (!(std::fabs(got - acc[j]) <= bound)) {
                    std::ostringstream os;
                    os << "C[" << r << "][" << j << "] = " << got
                       << ", naive double reference " << acc[j]
                       << ", bound " << bound;
                    msg = os.str();
                    return;
                }
            }
        }
    });
}

} // namespace

std::string
checkSpmm(const CsrMatrix& a, const DenseMatrix& b, const DenseMatrix& c,
          const std::string& kernel_name, Precision p)
{
    if (c.rows() != a.rows() || c.cols() != b.cols())
        return "C has the wrong shape";
    bool bit_exact = false;
    for (const dtc::KernelTraits& t : dtc::allKernelTraits())
        if (kernel_name == dtc::kernelKindName(t.kind))
            bit_exact = t.bitExactRounded;
    return bit_exact ? checkBitExact(a, b, c, p)
                     : checkBounded(a, b, c, p);
}

} // namespace perfbench
