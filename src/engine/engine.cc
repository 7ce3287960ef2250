#include "engine/engine.h"

#include <algorithm>
#include <atomic>

#include <unistd.h>

namespace dtc {
namespace engine {

namespace {

/** <= 0: no override; else forced by ScopedPanelCols. */
thread_local int64_t tlsPanelCols = 0;

/**
 * One-shot cache probe: size the panel so one row window's C slab
 * (windowHeight = 16 rows) plus a TC block's B rows (blockWidth = 8)
 * — 24 float rows, 96 bytes per column — fill about a quarter of L2,
 * leaving the rest for the index arrays and the other panels' tails.
 * Falls back to L3/8 when L2 is unreported, and to kPanelCols when
 * the probe is unavailable (containers often report 0).  The result
 * is rounded down to a multiple of kJBlock and clamped to [64, 4096].
 */
int64_t
probePanelCols()
{
    long bytes = -1;
#if defined(_SC_LEVEL2_CACHE_SIZE)
    bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL3_CACHE_SIZE)
    if (bytes <= 0) {
        const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
        if (l3 > 0)
            bytes = l3 / 8;
    }
#endif
    if (bytes <= 0)
        return kPanelCols;
    constexpr int64_t kBytesPerCol = (16 + 8) * 4;
    int64_t cols = (static_cast<int64_t>(bytes) / 4) / kBytesPerCol;
    cols &= ~(kJBlock - 1);
    return std::clamp<int64_t>(cols, 64, 4096);
}

} // namespace

int64_t
panelColsBase()
{
    if (tlsPanelCols > 0)
        return tlsPanelCols;
    static std::atomic<int64_t> probed{0};
    int64_t base = probed.load(std::memory_order_relaxed);
    if (base == 0) {
        base = probePanelCols();
        probed.store(base, std::memory_order_relaxed);
        obs::metrics::gauge("engine.panel_cols")
            .set(static_cast<double>(base));
    }
    return base;
}

ScopedPanelCols::ScopedPanelCols(int64_t cols) : prev(tlsPanelCols)
{
    tlsPanelCols = cols;
}

ScopedPanelCols::~ScopedPanelCols()
{
    tlsPanelCols = prev;
}

int64_t
panelCols(int64_t n)
{
    const int64_t base = panelColsBase();
    return n <= 2 * base ? n : base;
}

Stats&
stats()
{
    static Stats s{
        obs::metrics::counter("engine.b_round_ops"),
    };
    return s;
}

void
resetStats()
{
    stats().roundingOps.reset();
}

} // namespace engine
} // namespace dtc
