#include "kernels/cusparse_like.h"

#include <algorithm>

#include "common/check.h"
#include "engine/spmm_csr.h"
#include "kernels/b_traffic.h"

namespace dtc {

Refusal
CuSparseKernel::prepare(const CsrMatrix& a)
{
    // cuSPARSE consumes CSR directly — no conversion allocation, so
    // no budget gate: this is the guaranteed-supported terminal
    // fallback of the tuner's candidate chain (an input whose own CSR
    // arrays don't fit memory could never have been built).
    mat = a;
    ready = true;
    return Refusal::accept();
}

void
CuSparseKernel::compute(const DenseMatrix& b, DenseMatrix& c) const
{
    DTC_CHECK(ready);
    DTC_CHECK(mat.cols() == b.rows());
    DTC_CHECK(c.rows() == mat.rows() && c.cols() == b.cols());
    engine::spmmCsrRounded(mat.rows(), mat.rowPtr().data(),
                           mat.colIdx().data(), mat.values().data(),
                           Precision::Fp32, b, c, 64);
}

LaunchResult
CuSparseKernel::cost(int64_t n, const CostModel& cm) const
{
    DTC_CHECK(ready);
    const ArchSpec& arch = cm.arch();
    BTrafficMeter meter(arch, n);

    const int64_t num_tbs =
        (mat.rows() + kRowsPerTb - 1) / kRowsPerTb;
    std::vector<TbWork> tbs(static_cast<size_t>(num_tbs));
    const double nd = static_cast<double>(n);

    for (int64_t tb = 0; tb < num_tbs; ++tb) {
        const int64_t row_lo = tb * kRowsPerTb;
        const int64_t row_hi =
            std::min(row_lo + kRowsPerTb, mat.rows());
        TbWork& w = tbs[static_cast<size_t>(tb)];

        double e = 0.0;
        for (int64_t r = row_lo; r < row_hi; ++r) {
            for (int64_t k = mat.rowPtr()[r]; k < mat.rowPtr()[r + 1];
                 ++k) {
                meter.accessRow(mat.colIdx()[k],
                                static_cast<size_t>(tb));
                e += 1.0;
            }
        }
        const double rows = static_cast<double>(row_hi - row_lo);

        // One warp-level LDG.128 covers 128 B elements, so a nonzero's
        // N-wide row fetch takes n/128 warp instructions.
        w.ldg = e * (nd / 128.0) + 2.0 * e / 32.0 + rows / 32.0;
        // Address arithmetic: ~2 IMAD per B load instruction, ~3 per
        // nonzero for pointer/column decoding, plus per-row loop
        // setup for each column chunk — the overhead that dominates
        // on AvgRowL~2 matrices.
        w.imad = 2.0 * e * (nd / 128.0) + 3.0 * e / 32.0 +
                 4.0 * rows * (nd / 128.0);
        // The MACs: n thread-FMAs per nonzero.
        w.fma = e * nd / 32.0;
        w.syncs = 1.0;

        // Streamed A arrays (colIdx + values) and C writeback.
        w.bytesDram += e * 8.0 + rows * nd * 4.0;

        // Dependent index->B loads expose DRAM latency; short rows
        // give each warp little memory-level parallelism to hide it.
        const double avg_len = e / std::max(1.0, rows);
        const double mlp =
            std::clamp(avg_len * 8.0, 8.0, 32.0);
        w.stallCycles = e * arch.dramLatencyCycles / mlp;

        w.execSerialFrac = 1.0;
        w.memSerialFrac = 0.35;
        w.memEfficiency = 0.50;
        w.fixedCycles = 600.0;
    }

    meter.apportion(tbs);

    // cuSPARSE also tiles the dense dimension: each row chunk is
    // covered by N/32 thread blocks, each owning a 32-column slab.
    // Subdividing after metering splits every cost evenly.
    const int64_t col_tbs = std::clamp<int64_t>(n / 32, 1, 8);
    if (col_tbs > 1) {
        std::vector<TbWork> split;
        split.reserve(tbs.size() * static_cast<size_t>(col_tbs));
        const double inv = 1.0 / static_cast<double>(col_tbs);
        for (const TbWork& w : tbs) {
            TbWork part = w;
            part.hmma *= inv;
            part.fma *= inv;
            part.imad *= inv;
            part.ldg *= inv;
            part.sts *= inv;
            part.lds *= inv;
            part.atom *= inv;
            part.bytesL2Hit *= inv;
            part.bytesDram *= inv;
            part.stallCycles *= inv;
            for (int64_t c = 0; c < col_tbs; ++c)
                split.push_back(part);
        }
        tbs = std::move(split);
    }

    const double flops = 2.0 * static_cast<double>(mat.nnz()) * nd;
    return cm.launch(name(), tbs, flops, meter.hitRate());
}

} // namespace dtc
