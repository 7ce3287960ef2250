#include "matrix/dense.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace dtc {

DenseMatrix::DenseMatrix(int64_t rows, int64_t cols)
    : nRows(rows), nCols(cols), buf(static_cast<size_t>(rows * cols), 0.0f)
{
    DTC_CHECK(rows >= 0 && cols >= 0);
}

DenseMatrix
DenseMatrix::uninitialized(int64_t rows, int64_t cols)
{
    DTC_CHECK(rows >= 0 && cols >= 0);
    DenseMatrix m;
    m.nRows = rows;
    m.nCols = cols;
    m.buf.resize(static_cast<size_t>(rows * cols));
    return m;
}

void
DenseMatrix::setZero()
{
    std::fill(buf.begin(), buf.end(), 0.0f);
}

void
DenseMatrix::fill(float v)
{
    std::fill(buf.begin(), buf.end(), v);
}

void
DenseMatrix::fillRandom(Rng& rng, float lo, float hi)
{
    for (float& x : buf)
        x = rng.nextFloat(lo, hi);
}

double
DenseMatrix::maxAbsDiff(const DenseMatrix& other) const
{
    DTC_CHECK(nRows == other.nRows && nCols == other.nCols);
    // max is exact under any association, so the parallel reduction
    // matches the serial scan bit for bit.
    return parallelReduce(
        0, static_cast<int64_t>(buf.size()), 1 << 16, 0.0,
        [&](int64_t lo, int64_t hi) {
            double m = 0.0;
            for (int64_t i = lo; i < hi; ++i)
                m = std::max(
                    m, std::abs(static_cast<double>(
                                    buf[static_cast<size_t>(i)]) -
                                static_cast<double>(
                                    other.buf[static_cast<size_t>(
                                        i)])));
            return m;
        },
        [](double a, double b) { return std::max(a, b); });
}

double
DenseMatrix::frobeniusNorm() const
{
    double s = 0.0;
    for (float x : buf)
        s += static_cast<double>(x) * static_cast<double>(x);
    return std::sqrt(s);
}

DenseMatrix
DenseMatrix::transposed() const
{
    DenseMatrix t(nCols, nRows);
    for (int64_t r = 0; r < nRows; ++r)
        for (int64_t c = 0; c < nCols; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

bool
DenseMatrix::operator==(const DenseMatrix& other) const
{
    return nRows == other.nRows && nCols == other.nCols &&
           buf == other.buf;
}

} // namespace dtc
