/**
 * @file
 * The benchmark's own span recorder.
 *
 * A span covers one call into a layer's public function, made from
 * the benchmark's files: name, start, end, the span that was open on
 * the same thread when it began (its parent), and the request id it
 * belongs to.  Spans stay in memory and are written as chrome-trace
 * JSON ("X" events, request id and parent in args) when the run ends.
 * A layer's self time is its spans' duration minus the part their
 * child spans cover.
 *
 * Recording is off in untraced runs; a Span then only reads the clock,
 * which the caller needs for its own timing anyway.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {
namespace spans {

/** Arms recording for the rest of the process. */
void enable();

/** Disarms recording; already recorded spans are kept. */
void disable();

bool enabled();

/**
 * Records a finished span whose start and end were observed on
 * different threads (a request submitted on one, completed on
 * another).  Times are nowMs() values; the span has no parent.
 */
void record(const char* name, double start_ms, double end_ms,
            int64_t request);

/** Writes every recorded span as chrome-trace JSON to @p path. */
bool writeChromeTrace(const std::string& path);

/** Self time per span name. */
struct SelfTime
{
    double totalMs = 0.0;
    double selfMs = 0.0;
    int64_t count = 0;
};

/** Self time of every recorded span name, derived from parents. */
std::map<std::string, SelfTime> selfTimes();

} // namespace spans

/**
 * RAII span around one layer call.  The name must be a string
 * literal.  elapsedMs() is valid before and after stop().
 */
class Span
{
  public:
    explicit Span(const char* name, int64_t request = -1);
    ~Span() { stop(); }

    /** Ends the span (once) and returns its duration in ms. */
    double stop();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    double startMs;
    double endMs = -1.0;
    int64_t index = -1;  ///< Slot in the recorder; -1 when disarmed.
    int64_t parent = -1;
};

/** Times @p fn under a Span named @p name; returns milliseconds. */
template <typename Fn>
double
timedSpan(const char* name, Fn&& fn, int64_t request = -1)
{
    Span s(name, request);
    fn();
    return s.stop();
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
