/**
 * @file
 * Unit tests for the TCF format (TC-GNN's storage): array contents,
 * memory accounting (Observation 1), compressed column consistency.
 */
#include <gtest/gtest.h>

#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "formats/tcf.h"
#include "matrix/coo.h"

namespace dtc {
namespace {

TEST(Tcf, ArraysHavePaperSizes)
{
    Rng rng(1);
    CsrMatrix m = genUniform(300, 8.0, rng);
    TcfMatrix t = TcfMatrix::build(m);
    EXPECT_EQ(static_cast<int64_t>(t.blockPartition().size()),
              (m.rows() + 15) / 16);
    EXPECT_EQ(static_cast<int64_t>(t.nodePointer().size()),
              m.rows() + 1);
    EXPECT_EQ(static_cast<int64_t>(t.edgeList().size()), m.nnz());
    EXPECT_EQ(static_cast<int64_t>(t.edgeToColumn().size()), m.nnz());
    EXPECT_EQ(static_cast<int64_t>(t.edgeToRow().size()), m.nnz());
}

TEST(Tcf, IndexElementCountFormula)
{
    Rng rng(2);
    CsrMatrix m = genUniform(300, 8.0, rng);
    TcfMatrix t = TcfMatrix::build(m);
    EXPECT_EQ(t.indexElementCount(),
              (m.rows() + 15) / 16 + m.rows() + 1 + 3 * m.nnz());
}

TEST(Tcf, ConsumesFarMoreThanCsr)
{
    // Observation 1: TCF averages ~168% more memory than CSR.  For a
    // matrix with avg row length >= 2, 3*NNZ dominates and TCF must
    // exceed CSR by at least ~80%.
    Rng rng(3);
    CsrMatrix m = genUniform(1000, 8.0, rng);
    TcfMatrix t = TcfMatrix::build(m);
    const double ratio =
        static_cast<double>(t.indexElementCount()) /
        static_cast<double>(m.indexElementCount());
    EXPECT_GT(ratio, 1.8);
}

TEST(Tcf, EdgeToRowMatchesCsrStructure)
{
    Rng rng(4);
    CsrMatrix m = genPowerLaw(200, 5.0, 1.1, rng);
    TcfMatrix t = TcfMatrix::build(m);
    for (int64_t r = 0; r < m.rows(); ++r) {
        for (int64_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1]; ++k) {
            EXPECT_EQ(t.edgeToRow()[k], r);
            EXPECT_EQ(t.edgeList()[k], m.colIdx()[k]);
        }
    }
}

TEST(Tcf, CompressedColumnsAreWindowLocalRanks)
{
    Rng rng(5);
    CsrMatrix m = genUniform(200, 6.0, rng);
    TcfMatrix t = TcfMatrix::build(m);
    // Within a window, equal original columns get equal compressed
    // columns, and ordering by compressed column matches ordering by
    // original column.
    for (int64_t w = 0; w < t.numWindows(); ++w) {
        const int64_t row_lo = w * 16;
        const int64_t row_hi = std::min<int64_t>(row_lo + 16, m.rows());
        std::map<int32_t, int32_t> seen; // orig -> compressed
        for (int64_t r = row_lo; r < row_hi; ++r) {
            for (int64_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1];
                 ++k) {
                auto [it, fresh] = seen.emplace(
                    t.edgeList()[k], t.edgeToColumn()[k]);
                if (!fresh) {
                    EXPECT_EQ(it->second, t.edgeToColumn()[k]);
                }
            }
        }
        int32_t prev = -1;
        for (const auto& [orig, comp] : seen) {
            EXPECT_EQ(comp, prev + 1); // ranks are dense, ascending
            prev = comp;
        }
    }
}

TEST(Tcf, BlockPartitionMatchesSgt)
{
    Rng rng(6);
    CsrMatrix m = genCommunity(400, 4, 12.0, 0.8, rng);
    TcfMatrix t = TcfMatrix::build(m);
    SgtResult s = sgtCondense(m);
    EXPECT_EQ(t.blockPartition(), s.blocksPerWindow);
    EXPECT_EQ(t.numTcBlocks(), s.numTcBlocks);
    EXPECT_DOUBLE_EQ(t.meanNnzTc(), s.meanNnzTc);
}

TEST(Tcf, ValuesAlignedWithEdges)
{
    Rng rng(7);
    CsrMatrix m = genUniform(100, 4.0, rng);
    TcfMatrix t = TcfMatrix::build(m);
    EXPECT_EQ(t.values(), m.values());
}

TEST(Tcf, BuildFromSgtEqualsBuildArrayByArray)
{
    // Several 64-window chunks of the window-parallel edge arrays,
    // and a shape other than the default.
    Rng rng(8);
    const CsrMatrix m = genPowerLaw(5000, 10.0, 1.1, rng);
    for (const TcBlockShape shape :
         {TcBlockShape{}, TcBlockShape{8, 4}}) {
        TcfMatrix want;
        {
            ScopedNumThreads serial(1);
            want = TcfMatrix::build(m, shape);
        }
        for (int threads : {1, 4, 8}) {
            SCOPED_TRACE("threads " + std::to_string(threads) +
                         " window " +
                         std::to_string(shape.windowHeight));
            ScopedNumThreads nt(threads);
            const SgtResult sgt = sgtCondense(m, shape);
            const TcfMatrix t = TcfMatrix::build(m, sgt);
            EXPECT_EQ(t.rows(), want.rows());
            EXPECT_EQ(t.cols(), want.cols());
            EXPECT_EQ(t.numTcBlocks(), want.numTcBlocks());
            EXPECT_EQ(t.shape().windowHeight, shape.windowHeight);
            EXPECT_EQ(t.shape().blockWidth, shape.blockWidth);
            EXPECT_EQ(t.blockPartition(), want.blockPartition());
            EXPECT_EQ(t.nodePointer(), want.nodePointer());
            EXPECT_EQ(t.edgeList(), want.edgeList());
            EXPECT_EQ(t.edgeToColumn(), want.edgeToColumn());
            EXPECT_EQ(t.edgeToRow(), want.edgeToRow());
            EXPECT_EQ(t.values(), want.values());
        }
    }
}

} // namespace
} // namespace dtc
