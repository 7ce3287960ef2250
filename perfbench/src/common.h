/**
 * @file
 * Shared plumbing of the benchmark binary: run options, timing,
 * order statistics, seeded operands, result hashing and the metric
 * report every workload fills in.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/dense.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Monotonic wall clock in milliseconds (steady_clock). */
double nowMs();

/** Linear-interpolated quantile of @p v, q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);

inline double median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** Process peak resident set size in MiB (getrusage). */
double peakRssMiB();

/** splitmix64 step: a well-mixed 64-bit value from @p x. */
uint64_t mix64(uint64_t x);

/**
 * Fills @p m with values in [-1, 1) drawn from (@p seed, @p stream):
 * the same pair always gives the same contents.
 */
void fillDense(dtc::DenseMatrix& m, uint64_t seed, uint64_t stream);

/** Order-sensitive 64-bit hash of @p m's shape and float bits. */
uint64_t hashDense(const dtc::DenseMatrix& m);

/** Outcome counts of one workload: every operation it sent. */
struct OpCounts
{
    int64_t attempted = 0;
    int64_t failed = 0;  ///< Raised, rejected, expired or wrong.
    int64_t checked = 0; ///< Outputs compared against a reference.
    int64_t wrong = 0;   ///< Outputs that failed that comparison.
};

/**
 * Metrics of one run, printed one per line for people and as the
 * final JSON line for tools.
 */
class Report
{
  public:
    /**
     * Records metric @p name; @p samples is what the value rests on.
     * With @p in_result false it is printed but left out of the
     * result JSON.
     */
    void add(const std::string& name, double value,
             const std::string& unit, int64_t samples,
             bool in_result = true);

    /** Prints "metric <name> = <value> <unit> (samples=<n>)" lines. */
    void printHuman() const;

    /**
     * The result object: {"correct", "attempted", "failed",
     * "metrics": {name: {"value", "unit"}}}.
     */
    std::string toJson(const OpCounts& ops) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        int64_t samples;
        bool inResult;
    };
    std::vector<Metric> metrics;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
