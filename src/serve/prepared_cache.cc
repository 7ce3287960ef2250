#include "serve/prepared_cache.h"

#include <algorithm>
#include <cstring>

#include "common/budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtc {
namespace serve {

namespace {

/**
 * FNV-1a fold of @p n raw bytes into @p h, eight bytes per step so
 * hashing a multi-megabyte operand costs a fraction of its SpMM (the
 * hash runs on every submit).  Not the canonical byte-wise FNV
 * stream, but the same mixing — all that matters is determinism and
 * diffusion, and both arrays being hashed are little-endian POD.
 */
uint64_t
fnv1a(uint64_t h, const void* data, size_t n)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h = (h ^ w) * 0x100000001b3ull;
    }
    for (; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

void
publishGauges(size_t entries, int64_t bytes)
{
    obs::metrics::gauge("serve.cache.entries")
        .set(static_cast<double>(entries));
    obs::metrics::gauge("serve.cache.bytes")
        .set(static_cast<double>(bytes));
}

} // namespace

void
PreparedEntry::ensurePrepared(const CostModel& cm,
                              const runtime::RuntimeOptions& ropt)
{
    if (rt)
        return;
    DTC_TRACE_SCOPE("serve.prepare");
    obs::ScopedTimerMs timer("serve.prepare_ms");
    runtime::RuntimeOptions opt = ropt;
    opt.precision = precision;
    if (!tuned)
        tuned = runtime::Runtime::tune(a, opt.tune, cm, precision);
    rt = std::make_unique<runtime::Runtime>(a, tuned, std::move(opt));
    prepared.store(true, std::memory_order_release);
}

PreparedCache::PreparedCache(int64_t capacity_bytes)
    : capacity(capacity_bytes > 0
                   ? capacity_bytes
                   : ResourceBudget::current().stagingBytes)
{
}

uint64_t
PreparedCache::contentHash(const CsrMatrix& a)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const int64_t dims[2] = {a.rows(), a.cols()};
    h = fnv1a(h, dims, sizeof(dims));
    h = fnv1a(h, a.rowPtr().data(),
              a.rowPtr().size() * sizeof(int64_t));
    h = fnv1a(h, a.colIdx().data(),
              a.colIdx().size() * sizeof(int32_t));
    h = fnv1a(h, a.values().data(), a.values().size() * sizeof(float));
    return h;
}

int64_t
PreparedCache::entryBytes(const CsrMatrix& a)
{
    // The entry's CSR copy plus the Runtime's own copy; prepared
    // kernel formats (lanes, tiles, ME-TCF) are the same order of
    // magnitude, folded into the 2x rather than re-measured.
    const int64_t csr =
        static_cast<int64_t>(a.rowPtr().size()) * 8 +
        static_cast<int64_t>(a.nnz()) * (4 + 4);
    return 2 * csr + 1024;
}

std::shared_ptr<PreparedEntry>
PreparedCache::acquire(const CsrMatrix& a, Precision p)
{
    DTC_TRACE_SCOPE("serve.cache.acquire");
    const uint64_t key = contentHash(a);

    std::lock_guard<std::mutex> lock(mu);
    for (Slot& s : slots) {
        if (s.entry->key == key && s.entry->precision == p &&
            s.entry->a.rows() == a.rows() &&
            s.entry->a.cols() == a.cols()) {
            s.lastUse = ++tick;
            static obs::Counter& hits =
                obs::metrics::counter("serve.cache.hits");
            hits.add(1);
            return s.entry;
        }
    }

    static obs::Counter& misses =
        obs::metrics::counter("serve.cache.misses");
    misses.add(1);
    auto entry = std::make_shared<PreparedEntry>();
    entry->a = a;
    entry->precision = p;
    entry->key = key;
    entry->bytes = entryBytes(a);
    slots.push_back({entry, ++tick});
    resident += entry->bytes;

    // Evict past the byte budget, oldest first, but never the entry
    // just inserted — a single over-budget matrix must still serve.
    while (resident > capacity && slots.size() > 1) {
        auto lru = std::min_element(
            slots.begin(), slots.end(),
            [](const Slot& x, const Slot& y) {
                return x.lastUse < y.lastUse;
            });
        if (lru->entry == entry)
            break;
        resident -= lru->entry->bytes;
        slots.erase(lru);
        static obs::Counter& evictions =
            obs::metrics::counter("serve.cache.evictions");
        evictions.add(1);
    }
    publishGauges(slots.size(), resident);
    return entry;
}

size_t
PreparedCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return slots.size();
}

int64_t
PreparedCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu);
    return resident;
}

void
PreparedCache::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    slots.clear();
    resident = 0;
    publishGauges(0, 0);
}

} // namespace serve
} // namespace dtc
