#include "gpusim/l2cache.h"

#include <algorithm>

#include "common/check.h"

namespace dtc {

namespace {

/** Largest power of two not exceeding @p v (v >= 1). */
int64_t
floorPow2(int64_t v)
{
    int64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

} // namespace

L2Cache::L2Cache(int64_t capacity_bytes, int ways, int64_t line_bytes)
    : lineBytes(line_bytes), nWays(ways)
{
    DTC_CHECK(capacity_bytes > 0 && ways > 0 && line_bytes > 0);
    int64_t lines = std::max<int64_t>(ways, capacity_bytes / line_bytes);
    nSets = std::max<int64_t>(1, floorPow2(lines / ways));
    tags.assign(static_cast<size_t>(nSets) * nWays, kInvalid);
    lastUse.assign(tags.size(), 0);
}

bool
L2Cache::access(uint64_t addr)
{
    tick++;
    const uint64_t line = addr / static_cast<uint64_t>(lineBytes);
    const uint64_t set = line & static_cast<uint64_t>(nSets - 1);
    const size_t base = static_cast<size_t>(set) * nWays;
    uint64_t* set_tags = tags.data() + base;
    uint64_t* set_use = lastUse.data() + base;
    for (int w = 0; w < nWays; ++w) {
        if (set_tags[w] == line) {
            set_use[w] = tick;
            nHits++;
            return true;
        }
    }
    // Miss: fill the first empty way, else evict the first way with
    // the oldest use (every filled way's lastUse is >= 1).
    int victim = 0;
    for (int w = 0; w < nWays; ++w) {
        if (set_tags[w] == kInvalid) {
            victim = w;
            break;
        }
        if (set_use[w] < set_use[victim])
            victim = w;
    }
    set_tags[victim] = line;
    set_use[victim] = tick;
    nMisses++;
    return false;
}

double
L2Cache::hitRate() const
{
    const int64_t total = nHits + nMisses;
    return total > 0 ? static_cast<double>(nHits) /
                           static_cast<double>(total)
                     : 0.0;
}

void
L2Cache::reset()
{
    std::fill(tags.begin(), tags.end(), kInvalid);
    std::fill(lastUse.begin(), lastUse.end(), 0);
    nHits = 0;
    nMisses = 0;
    tick = 0;
}

} // namespace dtc
