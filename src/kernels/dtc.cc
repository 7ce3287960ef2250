#include "kernels/dtc.h"

#include <algorithm>
#include <sstream>

#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "engine/engine.h"
#include "engine/prepared_dense.h"
#include "engine/simd/simd.h"
#include "kernels/b_traffic.h"
#include "obs/metrics.h"

namespace dtc {

// name() used to rebuild this ostringstream on every cost()/launch()
// call; the options are fixed at construction, so format it once.
DtcKernel::DtcKernel(DtcOptions options) : opts(options)
{
    std::ostringstream os;
    os << "DTC-SpMM";
    if (opts.precision != Precision::Tf32)
        os << "<" << precisionName(opts.precision) << ">";
    switch (opts.mode) {
      case DtcOptions::Mode::Base:
        os << "-base";
        break;
      case DtcOptions::Mode::Balanced:
        os << "-balanced";
        break;
      case DtcOptions::Mode::Auto:
        break;
    }
    if (!(opts.smb && opts.ip && opts.sdb && opts.vfd)) {
        os << "[";
        if (opts.smb)
            os << "+SMB";
        if (opts.ip)
            os << "+IP";
        if (opts.sdb)
            os << "+SDB";
        if (opts.vfd)
            os << "+VFD";
        if (!opts.smb && !opts.ip && !opts.sdb && !opts.vfd)
            os << "ME-TCF only";
        os << "]";
    }
    cachedName = os.str();
}

Refusal
DtcKernel::prepare(const CsrMatrix& a)
{
    DTC_TRACE_SCOPE("dtc.prepare");
    obs::ScopedTimerMs timer("dtc.prepare_ms");
    static obs::Counter& prepares =
        obs::metrics::counter("dtc.prepares");
    prepares.add(1);
    if (opts.precision == Precision::Fp32) {
        return Refusal::refuse(ErrorCode::Unsupported,
                               "FP32 is not a tensor-core precision");
    }
    if (Refusal r = refuseIfOverConversionBudget(a, "ME-TCF");
        !r.ok())
        return r;
    format = MeTcfMatrix::build(a);
    buildLanes();
    ready = true;
    return Refusal::accept();
}

void
DtcKernel::buildLanes()
{
    const int64_t wh = format.shape().windowHeight;
    const int64_t bw = format.shape().blockWidth;
    const int64_t tile_elems = wh * bw;
    const int64_t num_blocks = format.numTcBlocks();
    const auto& rwo = format.rowWindowOffset();
    const auto& tco = format.tcOffset();
    const auto& lid = format.tcLocalId();
    const auto& atob = format.sparseAtoB();
    const auto& vals = format.values();

    lanes.row.resize(static_cast<size_t>(format.nnz()));
    lanes.col.resize(static_cast<size_t>(format.nnz()));
    lanes.val.resize(static_cast<size_t>(format.nnz()));

    // A fully-occupied block has every (row, lane) slot populated, so
    // its expanded tile multiplies with no skip tests and — unlike a
    // partially-filled tile — cannot change numerics: a padded slot's
    // 0 * b[j] would be NaN for b rounded to infinity (FP16
    // saturation), so only 100%-occupancy blocks take the dense path.
    lanes.denseTileOf.assign(static_cast<size_t>(num_blocks), -1);
    int64_t num_dense = 0;
    for (int64_t blk = 0; blk < num_blocks; ++blk) {
        if (format.nnzInBlock(blk) == tile_elems)
            lanes.denseTileOf[blk] = num_dense++;
    }
    lanes.denseTiles.resize(static_cast<size_t>(num_dense) *
                            tile_elems);

    parallelFor(0, format.numWindows(), 16,
                [&](int64_t w_lo, int64_t w_hi) {
        for (int64_t w = w_lo; w < w_hi; ++w) {
            for (int64_t blk = rwo[w]; blk < rwo[w + 1]; ++blk) {
                const int32_t* cols = atob.data() + blk * bw;
                for (int64_t k = tco[blk]; k < tco[blk + 1]; ++k) {
                    const int64_t local = lid[k];
                    lanes.row[k] = static_cast<int32_t>(
                        w * wh + local / bw);
                    lanes.col[k] = cols[local % bw];
                    lanes.val[k] =
                        roundToPrecision(vals[k], opts.precision);
                }
                const int64_t t = lanes.denseTileOf[blk];
                if (t >= 0) {
                    // Full block: every tile slot is written.
                    float* tile =
                        lanes.denseTiles.data() + t * tile_elems;
                    for (int64_t k = tco[blk]; k < tco[blk + 1]; ++k)
                        tile[lid[k]] = lanes.val[k];
                }
            }
        }
    });
}

void
DtcKernel::compute(const DenseMatrix& b, DenseMatrix& c) const
{
    DTC_TRACE_SCOPE("dtc.compute");
    static obs::Counter& computes =
        obs::metrics::counter("dtc.computes");
    computes.add(1);
    DTC_CHECK(ready);
    DTC_CHECK(format.cols() == b.rows());
    DTC_CHECK(c.rows() == format.rows() && c.cols() == b.cols());
    const int64_t n = b.cols();
    const int64_t wh = format.shape().windowHeight;
    const int64_t bw = format.shape().blockWidth;
    const auto& rwo = format.rowWindowOffset();
    const auto& tco = format.tcOffset();
    const auto& atob = format.sparseAtoB();

    // Traverse blocks left-to-right per window, lanes in ascending
    // local id: per output row this accumulates in ascending-column
    // order with operand rounding — identical numerics to the
    // mma.m16n8k4 pipeline and to referenceSpmmRounded.  Window-
    // parallel like the real grid: each window writes a disjoint row
    // slab of C, which its chunk zeroes first (no serial whole-C
    // pass).  B is pre-rounded once (PreparedDense), nonzero
    // coordinates and rounded values come from the flat lanes built
    // in prepare() (IP), and N is walked in cache-sized column panels
    // (VFD/SMB).
    const engine::PreparedDense pb(b, opts.precision);
    const int64_t tile_elems = wh * bw;
    // SIMD table and panel width resolved on the calling thread:
    // ScopedSimdMode / ScopedPanelCols are thread-local and would not
    // reach parallelFor workers.
    const engine::simd::Kernels& K = engine::simd::kernels();
    const int64_t pw = engine::panelCols(n);
    parallelFor(0, format.numWindows(), 16,
                [&](int64_t w_lo, int64_t w_hi) {
        std::fill(c.row(w_lo * wh),
                  c.row(std::min(w_hi * wh, format.rows())), 0.0f);
        std::vector<const float*> brows(static_cast<size_t>(bw));
        for (int64_t j0 = 0; j0 < n; j0 += pw) {
            const int64_t pn = std::min(pw, n - j0);
            for (int64_t w = w_lo; w < w_hi; ++w) {
                for (int64_t blk = rwo[w]; blk < rwo[w + 1]; ++blk) {
                    const int64_t t = lanes.denseTileOf[blk];
                    if (t >= 0) {
                        // Full block: the 16x8 tile inner product.
                        // All lanes are real columns (100%
                        // occupancy), so each B row pointer is valid.
                        const float* tile =
                            lanes.denseTiles.data() + t * tile_elems;
                        const int32_t* cols = atob.data() + blk * bw;
                        for (int64_t l = 0; l < bw; ++l)
                            brows[l] = pb.row(cols[l]) + j0;
                        K.tileInner(c.row(w * wh) + j0, c.cols(), tile,
                                    brows.data(), wh, bw, pn);
                        continue;
                    }
                    // Residue lanes: broadcast-value axpy with a
                    // software prefetch of the next lane's B row (the
                    // non-condensed fetch path).
                    const int64_t k_end = tco[blk + 1];
                    for (int64_t k = tco[blk]; k < k_end; ++k) {
                        const float* next_b =
                            k + 1 < k_end
                                ? pb.row(lanes.col[k + 1]) + j0
                                : nullptr;
                        K.axpyPrefetch(c.row(lanes.row[k]) + j0,
                                       pb.row(lanes.col[k]) + j0,
                                       lanes.val[k], pn, next_b);
                    }
                }
            }
        }
    });
}

void
DtcKernel::blockWork(int64_t block, int64_t n, TbWork& tb,
                     size_t tb_index, BTrafficMeter& meter) const
{
    const double kDramStallLatency = 600.0;
    const int64_t bw = format.shape().blockWidth;
    const double nd = static_cast<double>(n);
    const double e =
        static_cast<double>(format.nnzInBlock(block));

    // VFetchDense: the 8 B rows behind this block's lanes.
    const auto& atob = format.sparseAtoB();
    for (int64_t lane = 0; lane < bw; ++lane) {
        int32_t col = atob[block * bw + lane];
        if (col != MeTcfMatrix::kPadColumn)
            meter.accessRow(col, tb_index);
    }

    // Tensor-core compute: mma.m16n8k4 with k-depth 8 over N
    // outputs; FP16/BF16 MMA retires at twice the TF32 rate.
    tb.hmma += nd / 4.0 / tcRateMultiplier(opts.precision);

    // FetchSparse(Async): tcLocalId bytes + values + sparseAtoB move
    // as wide copies; one warp-level LDG.128 covers 512 bytes.
    const double sparse_bytes = 5.0 * e + 8.0 * 4.0 + 16.0;
    tb.ldg += sparse_bytes / 512.0;
    tb.imad += (opts.ip ? 1.5 : 5.0) * e / 32.0;
    // Expanding the A fragment from the shared-memory tile.
    tb.lds += 4.0;

    // VFetchDense instruction stream: 8*N elements.
    const double dense_loads = 8.0 * nd / (opts.vfd ? 128.0 : 32.0);
    tb.ldg += dense_loads;
    tb.imad += (opts.ip ? 2.0 : 6.0) * dense_loads +
               (opts.ip ? 0.0 : 2.0) * 8.0 * nd / 32.0;
    if (!opts.smb) {
        // Without bypassing, B tiles round-trip shared memory.
        tb.sts += 8.0 * nd / 32.0;
        tb.lds += 8.0 * nd / 32.0;
        tb.syncs += 1.0;
    }
    if (opts.sequentialAccess) {
        // Warp transpose to restore the column-major fragment
        // distribution: one shuffle round per fetched element group.
        tb.shfl += 8.0 * nd / 32.0;
    }
    tb.syncs += opts.sdb ? 0.5 : 1.0;
    // Eight wide row fetches per block keep plenty of loads in
    // flight; double buffering hides the sparse-tile latency too.
    tb.stallCycles += kDramStallLatency / (opts.sdb ? 24.0 : 8.0);

    // A-format traffic streams from DRAM exactly once (linear pass —
    // no TCGNN-style quadratic rescans).
    tb.bytesDram += sparse_bytes;
}

void
DtcKernel::applyPipelineProfile(TbWork& tb) const
{
    double esf = 1.0;
    double msf = 0.70;
    double eff = 0.70;
    if (opts.smb) {
        // No staging barriers between fetch and mma.
        esf -= 0.15;
        msf -= 0.08;
        eff += 0.08;
    }
    if (opts.sdb) {
        // FetchSparseAsync hides behind TCCompute.
        esf -= 0.20;
        msf -= 0.25;
        eff += 0.10;
    }
    if (opts.vfd) {
        // Wider transactions drain the LSU queue sooner and sustain
        // near-peak bandwidth.
        msf -= 0.05;
        eff += 0.08;
    }
    tb.execSerialFrac = std::clamp(esf, 0.3, 1.0);
    tb.memSerialFrac = std::clamp(msf, 0.25, 1.0);
    tb.memEfficiency = std::clamp(eff, 0.5, 0.96);
    tb.fixedCycles = 400.0;
}

LaunchResult
DtcKernel::costBase(int64_t n, const CostModel& cm) const
{
    const ArchSpec& arch = cm.arch();
    BTrafficMeter meter(arch, n);
    const double nd = static_cast<double>(n);
    const int64_t wh = format.shape().windowHeight;
    const auto& rwo = format.rowWindowOffset();

    std::vector<TbWork> tbs(static_cast<size_t>(format.numWindows()));
    for (int64_t w = 0; w < format.numWindows(); ++w) {
        TbWork& tb = tbs[static_cast<size_t>(w)];
        for (int64_t blk = rwo[w]; blk < rwo[w + 1]; ++blk)
            blockWork(blk, n, tb, static_cast<size_t>(w), meter);
        // Epilogue: StoreCRemapping writes the window's C rows once.
        const double rows = static_cast<double>(
            std::min<int64_t>(wh, format.rows() - w * wh));
        tb.bytesDram += rows * nd * 4.0;
        applyPipelineProfile(tb);
    }
    meter.apportion(tbs);

    const double flops = 2.0 * static_cast<double>(format.nnz()) * nd;
    return cm.launch(name(), tbs, flops, meter.hitRate());
}

LaunchResult
DtcKernel::costBalanced(int64_t n, const CostModel& cm) const
{
    const ArchSpec& arch = cm.arch();
    BTrafficMeter meter(arch, n);
    const double nd = static_cast<double>(n);
    const int64_t wh = format.shape().windowHeight;
    const int64_t num_blocks = format.numTcBlocks();
    const auto& rwo = format.rowWindowOffset();

    // Map block -> window once (blocks are window-sorted).
    std::vector<int32_t> block_window(
        static_cast<size_t>(num_blocks));
    for (int64_t w = 0; w < format.numWindows(); ++w)
        for (int64_t blk = rwo[w]; blk < rwo[w + 1]; ++blk)
            block_window[blk] = static_cast<int32_t>(w);

    std::vector<TbWork> tbs;
    std::vector<bool> window_written(
        static_cast<size_t>(format.numWindows()), false);
    for (int64_t lo = 0; lo < num_blocks; lo += kBlocksPerBalancedTb) {
        const int64_t hi =
            std::min(lo + kBlocksPerBalancedTb, num_blocks);
        TbWork tb;
        int32_t last_window = -1;
        for (int64_t blk = lo; blk < hi; ++blk) {
            blockWork(blk, n, tb, tbs.size(), meter);
            if (block_window[blk] != last_window) {
                last_window = block_window[blk];
                const double rows = static_cast<double>(
                    std::min<int64_t>(wh, format.rows() -
                                              last_window * wh));
                // Each window fragment combines its partial C rows
                // with atomics: an L2 read-modify-write per fragment
                // (C stays resident), ...
                tb.atom += rows * nd / 32.0;
                tb.bytesL2Hit += 2.0 * rows * nd * 4.0;
                // ... plus one dirty writeback to DRAM per window,
                // same as the base kernel's single store.
                if (!window_written[last_window]) {
                    window_written[last_window] = true;
                    tb.bytesDram += rows * nd * 4.0;
                }
            }
        }
        applyPipelineProfile(tb);
        tbs.push_back(tb);
    }
    meter.apportion(tbs);

    const double flops = 2.0 * static_cast<double>(format.nnz()) * nd;
    return cm.launch(name(), tbs, flops, meter.hitRate());
}

SelectorDecision
DtcKernel::decide(const ArchSpec& arch) const
{
    DTC_CHECK(ready);
    return selectKernel(format, arch);
}

LaunchResult
DtcKernel::cost(int64_t n, const CostModel& cm) const
{
    DTC_CHECK(ready);
    switch (opts.mode) {
      case DtcOptions::Mode::Base:
        return costBase(n, cm);
      case DtcOptions::Mode::Balanced:
        return costBalanced(n, cm);
      case DtcOptions::Mode::Auto: {
        SelectorDecision d = decide(cm.arch());
        return d.useBalanced ? costBalanced(n, cm) : costBase(n, cm);
      }
    }
    DTC_ASSERT(false);
    return {};
}

} // namespace dtc
