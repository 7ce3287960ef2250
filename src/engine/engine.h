/**
 * @file
 * Host execution engine — the CPU analog of the paper's runtime
 * optimisations, shared by every SpMM kernel's compute() path.
 *
 * The paper's kernels win through three fetch/index restructurings:
 *   - VFD (Vectorized Fetch Dense): wide, regular B loads;
 *   - IP  (Index Precomputing): nonzero coordinates resolved at
 *     format-conversion time instead of per-MAC;
 *   - SMB (Shared-Memory Bypassing): operands flow to the compute
 *     units without a staging round trip.
 *
 * On the host the same factors dominate, so the engine provides their
 * CPU analogs:
 *   - PreparedDense (prepared_dense.h): B is rounded to the target
 *     tensor-core precision once per compute() call — O(K*N)
 *     rounding ops — instead of once per touching nonzero inside
 *     each kernel's hot loop (O(nnz*N));
 *   - column-panel tiling (panelCols): the N dimension is processed
 *     in L1/L2-sized panels so each row window's C slab and the B
 *     panel behind it stay cache-resident (the VFD/SMB analog);
 *   - the SIMD micro-kernel table (simd/simd.h): register-blocked
 *     axpy and dense-tile kernels per ISA, with the per-element
 *     accumulation order of the naive reference loops, so results
 *     stay *bitwise identical* to them;
 *   - flat (row, col, val) lanes for DTC (built in prepare(), see
 *     DtcKernel): the IP analog.
 *
 * Every engine-routed kernel has exactly one compute() body, and it
 * runs through the engine.  The only engine-free SpMM loops are the
 * naive references in kernels/reference.cc (referenceSpmm,
 * referenceSpmmRounded) — the judge the equivalence suite
 * (tests/test_engine_equivalence.cc) and the conformance oracle hold
 * every kernel to, bitwise.
 */
#ifndef DTC_HOST_ENGINE_ENGINE_H
#define DTC_HOST_ENGINE_ENGINE_H

#include <cstdint>

#include "obs/metrics.h"

namespace dtc {
namespace engine {

/**
 * Column-panel width for dense width @p n: the N dimension is
 * processed panelColsBase() floats at a time so a row window's C slab
 * plus the B rows behind it stay cache-resident.  Widths up to
 * 2*panelColsBase() run as a single panel: one pass over the index
 * arrays is cheaper than two panels of re-scan.
 *
 * Callers on the engine hot paths resolve this once per compute()
 * call on the calling thread (before parallelFor), so a
 * ScopedPanelCols override propagates into worker threads via the
 * captured value.
 */
int64_t panelCols(int64_t n);

/**
 * The base panel width, resolved strongest-first from: an active
 * ScopedPanelCols on the calling thread; a one-shot sysconf L2/L3
 * cache probe rounded down to a multiple of kJBlock and clamped to
 * [64, 4096] (cached after the first call, and published as the
 * "engine.panel_cols" gauge); kPanelCols when the probe is
 * unavailable.  Keeping the width a multiple of kJBlock
 * keeps the engine.simd.* element counters independent of the panel
 * split (only the last panel can be partial).
 */
int64_t panelColsBase();

/** RAII thread-local panel-width override (tests pin multi-panel
 * coverage with it regardless of the host's cache size). */
class ScopedPanelCols
{
  public:
    explicit ScopedPanelCols(int64_t cols);
    ~ScopedPanelCols();

    ScopedPanelCols(const ScopedPanelCols&) = delete;
    ScopedPanelCols& operator=(const ScopedPanelCols&) = delete;

  private:
    int64_t prev;
};

/** Fallback panel width in floats (pre-probe default). */
constexpr int64_t kPanelCols = 256;

/** Fixed j-block width the simd element counters are defined against. */
constexpr int64_t kJBlock = 8;

/**
 * Process-wide engine counters, backed by the observability metrics
 * registry (obs/metrics.h) under the name "engine.b_round_ops" — so
 * it appears in metrics::toJson() snapshots and bench_compare gates
 * on it.  Bump it with add(), read it with load(); resetStats()
 * zeroes it.
 *
 * roundingOps is the measurable form of the O(nnz*N) -> O(K*N)
 * B-rounding reduction: PreparedDense bumps it by rows*cols once per
 * non-Fp32 compute() call, while rounding inside the hot loop (as the
 * naive referenceSpmmRounded does) performs nnz*N roundings per call.
 */
struct Stats
{
    obs::Counter& roundingOps;  ///< B elements rounded.
};

Stats& stats();
void resetStats();

} // namespace engine
} // namespace dtc

#endif // DTC_HOST_ENGINE_ENGINE_H
