/**
 * @file
 * Engine driver for CSR-shaped SpMM — the panel-tiled, pre-rounded
 * hot loop behind the cuSPARSE-like, TCGNN and Sputnik-like kernels
 * (anything that walks row -> nonzeros -> N-wide B row).
 *
 * Loop structure (per parallelFor chunk of rows):
 *
 *   for each column panel [j0, j0+pn):          // engine::panelCols
 *     for each row r in the chunk:
 *       for each nonzero k of r:                // CSR order
 *         axpy(C[r]+j0, Bprep[col(k)]+j0, v(k), pn)
 *
 * Panel tiling only reorders work across *distinct* output columns;
 * for any single C element the nonzeros are applied in exactly the
 * CSR order the naive reference uses, so outputs are bitwise
 * identical.  B comes from PreparedDense (rounded once per call); A values are rounded
 * inline per panel — O(nnz * N/panel), negligible next to the
 * O(nnz*N) B-rounding this replaces.
 */
#ifndef DTC_HOST_ENGINE_SPMM_CSR_H
#define DTC_HOST_ENGINE_SPMM_CSR_H

#include <cstdint>

#include "common/precision.h"
#include "matrix/dense.h"

namespace dtc {
namespace engine {

/**
 * C = A * B with operands rounded to @p p (Fp32 = no rounding) and
 * FP32 accumulation.  @p c must be pre-sized; it is zeroed here.
 * Rows are processed in parallel chunks of @p grain.
 */
void spmmCsrRounded(int64_t rows, const int64_t* row_ptr,
                    const int32_t* col_idx, const float* vals,
                    Precision p, const DenseMatrix& b, DenseMatrix& c,
                    int64_t grain);

} // namespace engine
} // namespace dtc

#endif // DTC_HOST_ENGINE_SPMM_CSR_H
