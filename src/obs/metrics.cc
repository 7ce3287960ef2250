#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace dtc {
namespace obs {

void
Gauge::set(double value)
{
    int64_t b;
    static_assert(sizeof(b) == sizeof(value));
    std::memcpy(&b, &value, sizeof(b));
    bits.store(b, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    const int64_t b = bits.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

void
Histogram::record(double sample)
{
    std::lock_guard<std::mutex> lk(mu);
    if (n == 0) {
        lo = sample;
        hi = sample;
    } else {
        lo = std::min(lo, sample);
        hi = std::max(hi, sample);
    }
    n++;
    total += sample;
    if (samples.size() < kMaxSamples)
        samples.push_back(sample);
}

int64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lk(mu);
    return n;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lk(mu);
    return total;
}

double
Histogram::min() const
{
    std::lock_guard<std::mutex> lk(mu);
    return n > 0 ? lo : 0.0;
}

double
Histogram::max() const
{
    std::lock_guard<std::mutex> lk(mu);
    return n > 0 ? hi : 0.0;
}

double
Histogram::quantile(double q) const
{
    std::lock_guard<std::mutex> lk(mu);
    if (samples.empty())
        return 0.0;
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    const double clamped = std::clamp(q, 0.0, 1.0);
    // Nearest rank: the ceil(q * N)-th smallest sample (1-based).
    size_t rank = static_cast<size_t>(std::ceil(
        clamped * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lk(mu);
    samples.clear();
    n = 0;
    total = 0;
    lo = 0;
    hi = 0;
}

namespace detail {

unsigned
assignCounterShard()
{
    static std::atomic<unsigned> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) %
           Counter::kShards;
}

} // namespace detail

namespace metrics {

namespace {

/**
 * Node-based maps keep element addresses stable, and entries are
 * never erased — references returned by counter()/gauge()/histogram()
 * stay valid for the life of the process.
 */
struct Registry
{
    std::mutex mu;
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
};

Registry&
registry()
{
    static auto* r = new Registry();
    return *r;
}

std::string
fmtDouble(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os.precision(6);
    os.setf(std::ios::fixed);
    os << v;
    return os.str();
}

} // namespace

Counter&
counter(const std::string& name)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return r.counters[name];
}

Gauge&
gauge(const std::string& name)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return r.gauges[name];
}

Histogram&
histogram(const std::string& name)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return r.histograms[name];
}

uint64_t
counterValue(const std::string& name)
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second.load();
}

std::string
toJson()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    std::ostringstream os;
    os << "{\n  \"schema\": \"dtc-metrics-v1\",\n";

    os << "  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : r.counters) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": " << c.load();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : r.gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": " << fmtDouble(g.value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : r.histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << name
           << "\": {\"count\": " << h.count()
           << ", \"sum\": " << fmtDouble(h.sum())
           << ", \"min\": " << fmtDouble(h.min())
           << ", \"max\": " << fmtDouble(h.max())
           << ", \"p50\": " << fmtDouble(h.quantile(0.5))
           << ", \"p95\": " << fmtDouble(h.quantile(0.95)) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

bool
writeJson(const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson();
    return out.good();
}

void
reset()
{
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    for (auto& [name, c] : r.counters)
        c.reset();
    for (auto& [name, g] : r.gauges)
        g.set(0.0);
    for (auto& [name, h] : r.histograms)
        h.reset();
}

} // namespace metrics
} // namespace obs
} // namespace dtc
