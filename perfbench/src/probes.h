/**
 * @file
 * Probes of the traced run: direct timings of one layer's public
 * calls on a workload's matrix, and the host roofline they are read
 * against.  None of them runs in an untraced (end-to-end) run.
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "common/precision.h"
#include "matrix/csr.h"
#include "reorder/tca.h"
#include "runtime/runtime.h"
#include "tuner/tuner.h"

namespace perfbench {

/** Thread widths the thread-scaling probe compares. */
constexpr int kProbeThreadsLo = 1;
constexpr int kProbeThreadsHi = 4;

/** The engine's work counters at one moment. */
struct EngineCounters
{
    uint64_t vectorElems = 0, tailElems = 0, roundOps = 0, panelHits = 0,
             panelMisses = 0;

    static EngineCounters read();
};

/**
 * Adds the engine.* metrics of the @p calls SpMM calls made between
 * @p before and @p after.
 */
void addEngineMetrics(const EngineCounters& before,
                      const EngineCounters& after, int64_t calls,
                      Report& out);

/** Runtime-layer tallies over the RunReports of successful calls. */
struct RunTally
{
    int64_t reports = 0, attempts = 0, firstTryOk = 0, retries = 0,
            reexecs = 0, fallbacks = 0;

    void add(const dtc::runtime::RunReport& r);
};

/** Adds runtime.{retries,reexecs,reference_fallbacks,useful_ratio}. */
void addRunTallyMetrics(const RunTally& t, Report& out);

/**
 * Adds the reorder.* metrics of reordering @p before into @p after
 * with @p r, which took @p ms: clusters, candidate pairs, and the TC
 * density gain (SGT MeanNnzTC after / before).
 */
void addReorderMetrics(const dtc::CsrMatrix& before,
                       const dtc::CsrMatrix& after,
                       const dtc::TcaResult& r, double ms, Report& out);

/**
 * Times sgtCondense and MeTcfMatrix::build on each matrix and adds
 * the formats.* metrics (medians over @p mats).
 */
void probeFormats(const std::vector<const dtc::CsrMatrix*>& mats,
                  Report& out);

/** The workload's view of the kernel the runtime picked. */
struct KernelProbeInput
{
    const dtc::CsrMatrix* a = nullptr;
    int64_t n = 0;                         ///< Dense width.
    std::optional<dtc::Precision> precision; ///< Unset = native.
    const dtc::TuneResult* tuned = nullptr; ///< The runtime's ranking.
    std::string picked;   ///< Kernel that served the runtime's calls.
    double runMsP50 = 0;  ///< Median Runtime::run latency, same input.
    uint64_t seed = 1;
};

/** What the roofline needs from the kernel probe. */
struct KernelFigures
{
    double gflops = 0.0;
    double flopsPerByte = 0.0;
};

/**
 * Times the picked kernel's prepare()/compute(), the guard, every
 * supported tuner candidate (selection regret) and the pick at
 * kProbeThreadsLo/Hi threads.  Adds the kernels.*, tuner.regret,
 * parallel.* and runtime.{guard_ms,guard_share,run_overhead_ms}
 * metrics to @p out.
 */
KernelFigures probeKernels(const KernelProbeInput& in, Report& out);

/**
 * Host roofline: a kProbeThreadsHi-thread triad over arrays whose
 * total is >= 4x the last-level cache, and the FMA peak of the
 * engine's active ISA.  Adds host.* and kernels.roofline_pct.
 */
void probeHost(const KernelFigures& kernel, Report& out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
