/**
 * @file
 * The benchmark's workloads.  Each fills @p out with every metric of
 * its run (end-to-end metrics untraced, per-layer metrics traced) and
 * @p ops with what it sent and how much of it failed.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>

#include "common.h"
#include "common/precision.h"
#include "matrix/csr.h"

namespace perfbench {

/** iter_long_rows / iter_short_rows: one Runtime, closed loop. */
void runIterWorkload(const Options& opt, Report& out, OpCounts& ops);

/** serve_mixed: SpmmService under an open-loop rate ladder. */
void runServeWorkload(const Options& opt, Report& out, OpCounts& ops);

/** True when @p name is one of the iteration workloads. */
bool isIterWorkload(const std::string& name);

/**
 * serve.* layer probe for workloads that bypass the service: a burst
 * of @p requests submits of A x (a.cols() x @p n) at precision @p p
 * through a fresh SpmmService.  Adds every serve.* per-layer metric.
 */
void probeServeLayer(const dtc::CsrMatrix& a, int64_t n, dtc::Precision p,
                     int requests, uint64_t seed, Report& out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
