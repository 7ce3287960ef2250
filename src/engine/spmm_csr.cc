#include "engine/spmm_csr.h"

#include <algorithm>

#include "common/cancel.h"
#include "common/parallel.h"
#include "engine/engine.h"
#include "engine/prepared_dense.h"
#include "engine/simd/simd.h"

namespace dtc {
namespace engine {

void
spmmCsrRounded(int64_t rows, const int64_t* row_ptr,
               const int32_t* col_idx, const float* vals, Precision p,
               const DenseMatrix& b, DenseMatrix& c, int64_t grain)
{
    const int64_t n = c.cols();
    const PreparedDense pb(b, p);
    const bool round_a = p != Precision::Fp32;
    c.setZero();
    // Resolve the SIMD table and panel width on the calling thread:
    // ScopedSimdMode / ScopedPanelCols are thread-local and would not
    // reach parallelFor workers.
    const simd::Kernels& K = simd::kernels();
    const int64_t pw = panelCols(n);
    parallelFor(0, rows, grain, [&](int64_t r_lo, int64_t r_hi) {
        for (int64_t j0 = 0; j0 < n; j0 += pw) {
            // Deadline poll per (chunk, panel): even one huge chunk
            // cannot stall a runWithDeadline past a single panel.
            cancel::poll();
            const int64_t pn = std::min(pw, n - j0);
            for (int64_t r = r_lo; r < r_hi; ++r) {
                float* __restrict crow = c.row(r) + j0;
                const int64_t k_end = row_ptr[r + 1];
                for (int64_t k = row_ptr[r]; k < k_end; ++k) {
                    const float v =
                        round_a ? roundToPrecision(vals[k], p)
                                : vals[k];
                    const float* next_b =
                        k + 1 < k_end ? pb.row(col_idx[k + 1]) + j0
                                      : nullptr;
                    K.axpyPrefetch(crow, pb.row(col_idx[k]) + j0, v,
                                   pn, next_b);
                }
            }
        }
    });
}

} // namespace engine
} // namespace dtc
