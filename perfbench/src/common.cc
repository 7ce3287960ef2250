#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace perfbench {

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
fillDense(dtc::DenseMatrix& m, uint64_t seed, uint64_t stream)
{
    uint64_t s = mix64(seed ^ mix64(stream + 0x51ed));
    float* p = m.data();
    const size_t n = m.size();
    for (size_t i = 0; i < n; ++i) {
        // xorshift64*: cheap enough that a fresh 26k x 128 operand
        // per call costs a few milliseconds.
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        const uint64_t r = s * 0x2545f4914f6cdd1dull;
        p[i] = static_cast<float>(r >> 40) * (2.0f / 16777216.0f) - 1.0f;
    }
}

uint64_t
hashDense(const dtc::DenseMatrix& m)
{
    uint64_t h = mix64(static_cast<uint64_t>(m.rows()) * 31 +
                       static_cast<uint64_t>(m.cols()));
    const float* p = m.data();
    const size_t n = m.size();
    for (size_t i = 0; i < n; ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, p + i, sizeof bits);
        h = (h ^ bits) * 0x100000001b3ull;
        h ^= h >> 29;
    }
    return h;
}

void
Report::add(const std::string& name, double value,
            const std::string& unit, int64_t samples, bool in_result)
{
    metrics.push_back({name, value, unit, samples, in_result});
}

void
Report::printHuman() const
{
    for (const Metric& m : metrics)
        std::printf("metric %-28s = %.6g %s (samples=%lld)%s\n",
                    m.name.c_str(), m.value, m.unit.c_str(),
                    static_cast<long long>(m.samples),
                    m.inResult ? "" : " [printed only]");
}

std::string
Report::toJson(const OpCounts& ops) const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (ops.wrong == 0 ? "true" : "false")
       << ", \"attempted\": " << ops.attempted
       << ", \"failed\": " << ops.failed << ", \"metrics\": {";
    const char* sep = "";
    for (const Metric& m : metrics) {
        if (!m.inResult)
            continue;
        // JSON has no NaN or infinity; a broken metric reads 0.
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        os << sep << "\"" << m.name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
        sep = ", ";
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
