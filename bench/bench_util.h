/**
 * @file
 * Shared helpers for the per-table/per-figure benchmark binaries:
 * fixed-width table printing, geometric means, kernel runners with
 * prepared-format caching, and a --quick flag for abbreviated runs.
 */
#ifndef DTC_BENCH_BENCH_UTIL_H
#define DTC_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "datasets/table1.h"
#include "gpusim/cost_model.h"
#include "kernels/kernel.h"
#include "matrix/csr.h"
#include "obs/trace.h"

namespace dtc {
namespace bench {

/**
 * Wall-clock of @p reps calls of @p fn in milliseconds, on the
 * observability clock (obs::monotonicNowUs) — the one shared timing
 * helper for the bench binaries, replacing per-binary chrono code.
 */
template <typename F>
double
timedMs(int reps, F&& fn)
{
    const double t0 = obs::monotonicNowUs();
    for (int i = 0; i < reps; ++i)
        fn();
    return (obs::monotonicNowUs() - t0) / 1e3;
}

/** Parses shared CLI flags (--quick, --collection=N). */
struct BenchArgs
{
    bool quick = false;
    int collectionSize = 414;

    static BenchArgs parse(int argc, char** argv);
};

/** Prints a horizontal rule sized to the current table. */
void printRule(const std::vector<int>& widths);

/** Prints one row with the given column widths (left-justified). */
void printRow(const std::vector<int>& widths,
              const std::vector<std::string>& cells);

/** Formats a double with @p digits decimals. */
std::string fmt(double v, int digits = 2);

/** Formats "1.23x" speedups. */
std::string fmtX(double v, int digits = 2);

/** Geometric mean of positive values (ignores non-positive). */
double geomean(const std::vector<double>& values);

/** Median (upper middle for even sizes); @p values must be non-empty. */
double median(std::vector<double> values);

/**
 * A prepared kernel bound to one matrix, with cost results cached
 * per (arch, n).
 */
class PreparedKernel
{
  public:
    PreparedKernel(KernelKind kind, const CsrMatrix& a);

    /** Empty when prepare() succeeded. */
    const std::string& error() const { return err; }
    /** Taxonomy code of the refusal (meaningless when error() is empty). */
    ErrorCode errorCode() const { return code; }
    const std::string& name() const { return kernelName; }

    /** Simulated launch (cached). */
    const LaunchResult& cost(int64_t n, const CostModel& cm);

  private:
    std::string kernelName;
    std::string err;
    ErrorCode code = ErrorCode::Internal;
    std::unique_ptr<SpmmKernel> kernel;
    std::map<std::pair<std::string, int64_t>, LaunchResult> cache;
};

/** Builds all Table-1 analogs once (they are deterministic). */
const std::vector<std::pair<Table1Entry, CsrMatrix>>&
table1Matrices();

} // namespace bench
} // namespace dtc

#endif // DTC_BENCH_BENCH_UTIL_H
