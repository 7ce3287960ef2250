/**
 * @file
 * PreparedCache — the serving layer's content-hashed LRU of
 * tuned/prepared sparse operands.
 *
 * DTC-SpMM's economics (and cuTeSpMM's / Acc-SpMM's) rest on
 * amortizing one-time sparse preprocessing — SGT condensation,
 * ME-TCF conversion, tuning — across many SpMM executions over the
 * same A.  A serving deployment meets that workload as *repeat
 * traffic*: many tenants multiplying the same graph against fresh
 * dense panels.  This cache is where the amortization lives: one
 * entry per (A contents, requested precision) holding the tuner's
 * ranking plus a resilient Runtime whose kernels prepare once and
 * then serve every subsequent request.
 *
 * Identity is the *contents*, not the pointer: acquire() hashes A's
 * arrays (FNV-1a, deterministic for any thread count), so a caller
 * that mutates its matrix in place gets a fresh entry — never stale
 * prepared state.
 *
 * Capacity is a byte budget (ServeOptions::cacheBytes, falling back
 * to ResourceBudget::current().stagingBytes): inserting past it
 * evicts least-recently-used entries.  Evicted entries stay alive
 * while in-flight requests hold their shared_ptr, so eviction never
 * races an execution.  Counters: serve.cache.{hits,misses,
 * evictions}; gauges: serve.cache.{entries,bytes}.
 */
#ifndef DTC_SERVE_PREPARED_CACHE_H
#define DTC_SERVE_PREPARED_CACHE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/precision.h"
#include "gpusim/cost_model.h"
#include "matrix/csr.h"
#include "runtime/runtime.h"
#include "tuner/tuner.h"

namespace dtc {
namespace serve {

/**
 * One cached (A, precision) pair: the owned matrix copy, the
 * lazily-tuned ranking, and the Runtime whose prepared kernels every
 * request against this entry reuses.  Runtime::run is not
 * thread-safe, so executions on one entry serialize on `mu` — the
 * service batches same-entry requests instead of racing them.
 */
struct PreparedEntry
{
    CsrMatrix a;          ///< Owned copy, stable across caller mutation.
    Precision precision = Precision::Fp32;
    uint64_t key = 0;     ///< Content hash of (shape, arrays).
    int64_t bytes = 0;    ///< Approximate resident footprint.

    /** Serializes ensurePrepared() + every run on this entry. */
    std::mutex mu;

    /** Tuner ranking; null until the first execution prepares it. */
    std::shared_ptr<const TuneResult> tuned;

    /** Resilient executor; null until the first execution. */
    std::unique_ptr<runtime::Runtime> rt;

    /**
     * Lock-free mirror of `rt != nullptr` (release-set at the end of
     * ensurePrepared): submit() reads it for the cache-hit flag
     * without taking `mu`, which an in-flight execution may hold for
     * the length of a run.
     */
    std::atomic<bool> prepared{false};

    /**
     * Tunes + constructs the Runtime on first call (under `mu`,
     * which the caller must hold); later calls are no-ops — the
     * warm-path guarantee the acceptance bench gates on.
     */
    void ensurePrepared(const CostModel& cm,
                        const runtime::RuntimeOptions& ropt);
};

/** Content-hashed LRU of PreparedEntry (see file comment). */
class PreparedCache
{
  public:
    /**
     * @param capacity_bytes  eviction threshold; <= 0 defers to
     *                        ResourceBudget::current().stagingBytes.
     */
    explicit PreparedCache(int64_t capacity_bytes);

    /**
     * The entry for (@p a's contents, @p p): a hit bumps LRU age, a
     * miss inserts a fresh (untuned) entry and evicts past the byte
     * budget.  The returned entry is shared — it outlives eviction
     * for as long as the caller holds it.
     */
    std::shared_ptr<PreparedEntry> acquire(const CsrMatrix& a,
                                           Precision p);

    /** Deterministic FNV-1a over shape + rowPtr + colIdx + values. */
    static uint64_t contentHash(const CsrMatrix& a);

    /** Approximate resident bytes of one entry for @p a. */
    static int64_t entryBytes(const CsrMatrix& a);

    size_t entries() const;
    int64_t residentBytes() const;
    int64_t capacityBytes() const { return capacity; }

    /** Drops every entry (tests). */
    void clear();

  private:
    mutable std::mutex mu;
    int64_t capacity;
    int64_t resident = 0;
    uint64_t tick = 0;

    struct Slot
    {
        std::shared_ptr<PreparedEntry> entry;
        uint64_t lastUse = 0;
    };
    std::vector<Slot> slots;
};

} // namespace serve
} // namespace dtc

#endif // DTC_SERVE_PREPARED_CACHE_H
