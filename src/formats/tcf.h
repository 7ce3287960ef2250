/**
 * @file
 * TCF — the TC-GNN Compressed Format (paper Section 2.3).
 *
 * TCF stores an SGT-condensed matrix in five arrays:
 *   - blockPartition: TC blocks per row window      (ceil(M/16) elems)
 *   - nodePointer:    CSR-style row offsets         (M + 1 elems)
 *   - edgeList:       original column per nonzero   (NNZ elems)
 *   - edgeToColumn:   compressed column per nonzero (NNZ elems)
 *   - edgeToRow:      row index per nonzero         (NNZ elems)
 * for a total of ceil(M/16) + M + 1 + 3*NNZ index elements — the
 * memory inefficiency the paper's Observation 1 measures (~168% more
 * than CSR's M + 1 + NNZ).
 *
 * The nonzero ordering is CSR order (row-major, ascending column),
 * exactly what TCGNN-SpMM's FetchSparse stage walks.
 */
#ifndef DTC_FORMATS_TCF_H
#define DTC_FORMATS_TCF_H

#include <cstdint>
#include <vector>

#include "formats/sgt.h"
#include "matrix/csr.h"

namespace dtc {

/** The TC-GNN Compressed Format. */
class TcfMatrix
{
  public:
    /** Builds TCF from CSR (runs SGT internally). */
    static TcfMatrix build(const CsrMatrix& m, TcBlockShape shape = {});

    /**
     * Builds TCF from CSR and its SGT condensation @p sgt (the result
     * of sgtCondense(m, shape); the block shape is sgt.shape), for a
     * caller that keeps the condensation too and so condenses once.
     */
    static TcfMatrix build(const CsrMatrix& m, const SgtResult& sgt);

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }
    int64_t nnz() const { return static_cast<int64_t>(edgeListArr.size()); }
    int64_t numWindows() const
    {
        return static_cast<int64_t>(blockPartitionArr.size());
    }
    int64_t numTcBlocks() const { return nTcBlocks; }
    const TcBlockShape& shape() const { return blockShape; }

    /** TC blocks in each row window. */
    const std::vector<int32_t>& blockPartition() const
    {
        return blockPartitionArr;
    }

    /** CSR-style row offsets into the edge arrays. */
    const std::vector<int64_t>& nodePointer() const
    {
        return nodePointerArr;
    }

    /** Original column index of each nonzero (CSR order). */
    const std::vector<int32_t>& edgeList() const { return edgeListArr; }

    /** SGT-compressed column index of each nonzero. */
    const std::vector<int32_t>& edgeToColumn() const
    {
        return edgeToColumnArr;
    }

    /** Row index of each nonzero. */
    const std::vector<int32_t>& edgeToRow() const { return edgeToRowArr; }

    /** Nonzero values, aligned with edgeList. */
    const std::vector<float>& values() const { return valArr; }

    /** MeanNnzTC of the underlying condensation. */
    double meanNnzTc() const;

    /**
     * Index-array footprint in 32-bit-element units, as Observation 1
     * counts: ceil(M/16) + M + 1 + 3*NNZ.
     */
    int64_t indexElementCount() const;

  private:
    int64_t nRows = 0;
    int64_t nCols = 0;
    int64_t nTcBlocks = 0;
    TcBlockShape blockShape;
    std::vector<int32_t> blockPartitionArr;
    std::vector<int64_t> nodePointerArr;
    std::vector<int32_t> edgeListArr;
    std::vector<int32_t> edgeToColumnArr;
    std::vector<int32_t> edgeToRowArr;
    std::vector<float> valArr;
};

} // namespace dtc

#endif // DTC_FORMATS_TCF_H
