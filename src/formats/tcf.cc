#include "formats/tcf.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"

namespace dtc {

namespace {

/** Windows per parallelFor chunk of the per-nonzero arrays. */
constexpr int64_t kWindowGrain = 64;

} // namespace

TcfMatrix
TcfMatrix::build(const CsrMatrix& m, TcBlockShape shape)
{
    return build(m, sgtCondense(m, shape));
}

TcfMatrix
TcfMatrix::build(const CsrMatrix& m, const SgtResult& sgt)
{
    DTC_CHECK(sgt.rows == m.rows() && sgt.cols == m.cols() &&
              sgt.nnz == m.nnz());
    const TcBlockShape shape = sgt.shape;
    TcfMatrix t;
    t.nRows = m.rows();
    t.nCols = m.cols();
    t.nTcBlocks = sgt.numTcBlocks;
    t.blockShape = shape;
    t.blockPartitionArr = sgt.blocksPerWindow;
    t.nodePointerArr = m.rowPtr();
    t.edgeListArr = m.colIdx();
    t.valArr = m.values();
    t.edgeToColumnArr.resize(static_cast<size_t>(m.nnz()));
    t.edgeToRowArr.resize(static_cast<size_t>(m.nnz()));
    const auto& row_ptr = m.rowPtr();
    const auto& col_idx = m.colIdx();
    // Each window owns the contiguous nonzeros of its rows, so
    // chunks of windows write disjoint ranges of both arrays.
    parallelFor(0, sgt.numWindows, kWindowGrain,
                [&](int64_t w_lo, int64_t w_hi) {
        for (int64_t w = w_lo; w < w_hi; ++w) {
            const int64_t row_lo = w * shape.windowHeight;
            const int64_t row_hi =
                std::min(row_lo + shape.windowHeight, m.rows());
            const int32_t* cols_begin = sgt.windowColsBegin(w);
            const int32_t* cols_end =
                cols_begin + sgt.windowColCount(w);
            for (int64_t r = row_lo; r < row_hi; ++r) {
                for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
                    // Compressed column = rank of the original column
                    // in the window's sorted distinct-column list.
                    auto it = std::lower_bound(cols_begin, cols_end,
                                               col_idx[k]);
                    DTC_ASSERT(it != cols_end && *it == col_idx[k]);
                    t.edgeToColumnArr[k] =
                        static_cast<int32_t>(it - cols_begin);
                    t.edgeToRowArr[k] = static_cast<int32_t>(r);
                }
            }
        }
    });
    return t;
}

double
TcfMatrix::meanNnzTc() const
{
    return nTcBlocks > 0
               ? static_cast<double>(nnz()) /
                     static_cast<double>(nTcBlocks)
               : 0.0;
}

int64_t
TcfMatrix::indexElementCount() const
{
    const int64_t windows =
        (nRows + blockShape.windowHeight - 1) / blockShape.windowHeight;
    return windows + nRows + 1 + 3 * nnz();
}

} // namespace dtc
