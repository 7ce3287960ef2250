/**
 * @file
 * Process-wide metrics registry: named counters, gauges and
 * histograms, dumped as a stable machine-readable JSON snapshot
 * (schema "dtc-metrics-v1", see toJson()).
 *
 * This registry absorbs the ad-hoc counters that used to be
 * scattered around the library: engine::Stats (B-rounding and panel
 * cache counts) is now a view over registry counters, the GCN
 * trainer's fallback events, the tuner's refusal tallies and armed
 * fault-site hits all land here too.
 *
 * Usage pattern in hot-ish code — resolve the registry entry once:
 *
 *     static obs::Counter& c = obs::metrics::counter("dtc.computes");
 *     c.add(1);
 *
 * Registry entries are never destroyed, so references stay valid for
 * the life of the process; metrics::reset() zeroes values in place.
 *
 * Cost: Counter is sharded per thread (see Counter), so add() is one
 * relaxed add on a cache line that only the calling thread writes —
 * a counter bumped once per nonzero by every parallelFor worker does
 * not serialize them.  A lookup by name takes the registry mutex and
 * builds a std::string, so anything called per request or per
 * element resolves its entries once, as above.
 *
 * Determinism: counters count *work* (elements rounded, candidates
 * evaluated, fallbacks taken), never time, so their values are
 * identical across runs, thread counts and build types — which is
 * what lets bench_compare gate on them exactly.  Sharding does not
 * change this: a read sums every shard, and integer addition is
 * exact and order-free.  Histograms hold wall-clock samples; only
 * their sample *count* is deterministic.
 */
#ifndef DTC_OBS_METRICS_H
#define DTC_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace dtc {
namespace obs {

namespace detail {

/** Hands out the calling thread's shard index (round-robin). */
unsigned assignCounterShard();

/** This thread's shard index, assigned on its first add(). */
inline unsigned
counterShard()
{
    thread_local unsigned shard = ~0u;
    if (shard == ~0u)
        shard = assignCounterShard();
    return shard;
}

} // namespace detail

/**
 * Monotonic event count, sharded per thread.
 *
 * add() bumps the calling thread's own cache-line-sized shard with a
 * relaxed atomic add, so concurrent writers never contend for a
 * line.  Threads take shards round-robin on their first add(); past
 * kShards threads, some share a shard, which costs contention but
 * never accuracy.  load() sums the shards: exact once the writers
 * are joined (e.g. after parallelFor returns), and independent of
 * how the work was split across threads.  There is no fetch_add:
 * no single shard holds "the previous value".
 */
class Counter
{
  public:
    static constexpr unsigned kShards = 16;

    void add(uint64_t n = 1)
    {
        shards[detail::counterShard()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t load() const
    {
        uint64_t total = 0;
        for (const Shard& s : shards)
            total += s.v.load(std::memory_order_relaxed);
        return total;
    }

    /** Zeroes every shard (racing add()s may survive). */
    void reset()
    {
        for (Shard& s : shards)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> v{0};
    };
    Shard shards[kShards];
};

/** Last-write-wins scalar (atomic double bits). */
class Gauge
{
  public:
    void set(double value);
    double value() const;

  private:
    std::atomic<int64_t> bits{0};
};

/**
 * Wall-clock-style sample distribution with nearest-rank quantiles.
 * count / sum / min / max are exact over every sample; quantiles are
 * computed from the first kMaxSamples samples (deterministic, bounded
 * memory — benchmark loops can record millions of samples).
 */
class Histogram
{
  public:
    static constexpr size_t kMaxSamples = 4096;

    void record(double sample);

    int64_t count() const;
    double sum() const;
    double min() const;
    double max() const;
    /** Nearest-rank quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    void reset();

  private:
    mutable std::mutex mu;
    std::vector<double> samples; ///< First kMaxSamples only.
    int64_t n = 0;
    double total = 0;
    double lo = 0;
    double hi = 0;
};

namespace metrics {

/** The counter registered under @p name (created on first use). */
Counter& counter(const std::string& name);

/** The gauge registered under @p name (created on first use). */
Gauge& gauge(const std::string& name);

/** The histogram registered under @p name (created on first use). */
Histogram& histogram(const std::string& name);

/** Value of a counter, 0 when it was never registered. */
uint64_t counterValue(const std::string& name);

/**
 * JSON snapshot, schema "dtc-metrics-v1":
 *
 *     {
 *       "schema": "dtc-metrics-v1",
 *       "counters":   {"name": <uint>, ...},
 *       "gauges":     {"name": <double>, ...},
 *       "histograms": {"name": {"count": <int>, "sum": <double>,
 *                               "min": <double>, "max": <double>,
 *                               "p50": <double>, "p95": <double>},
 *                      ...}
 *     }
 *
 * Keys are sorted, so snapshots of identical state are identical
 * text.  bench_compare consumes this format.
 */
std::string toJson();

/** Writes toJson() to @p path; false when the file cannot open. */
bool writeJson(const std::string& path);

/**
 * Zeroes every counter/gauge and empties every histogram *in place*
 * — registry entries are never destroyed, so references obtained
 * before reset() stay valid.
 */
void reset();

} // namespace metrics

/**
 * RAII phase timer: records elapsed milliseconds into the named
 * histogram at scope exit.  Pair with DTC_TRACE_SCOPE for phases
 * that should show up both in traces and in metrics snapshots.
 * The histogram is resolved before the clock starts, so the
 * registry lookup is neither timed nor repeated at scope exit.
 */
class ScopedTimerMs
{
  public:
    explicit ScopedTimerMs(const char* histogram_name)
        : hist(metrics::histogram(histogram_name)),
          t0(monotonicNowUs())
    {
    }
    ~ScopedTimerMs() { hist.record((monotonicNowUs() - t0) / 1e3); }

    ScopedTimerMs(const ScopedTimerMs&) = delete;
    ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

  private:
    Histogram& hist;
    double t0;
};

} // namespace obs
} // namespace dtc

#endif // DTC_OBS_METRICS_H
