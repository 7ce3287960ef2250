#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/env.h"
#include "common/parallel.h"
#include "gpusim/arch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtc {
namespace serve {

namespace {

/**
 * Elements per parallelFor chunk of the batch pack and split (512 KiB
 * of floats): a small batch stays one chunk and runs inline, without
 * dispatch, while a wide one spreads over the pool.
 */
constexpr int64_t kCopyChunkElems = int64_t{1} << 17;

int
resolveThreads(int requested)
{
    if (requested >= 0)
        return requested;
    const auto env_threads = env::readInt64("DTC_SERVE_THREADS", 0, 256);
    return env_threads ? static_cast<int>(*env_threads) : 2;
}

int64_t
resolveQueueCapacity(int64_t requested)
{
    if (requested >= 0)
        return requested;
    const auto env_cap = env::readInt64("DTC_SERVE_QUEUE", 1, 1 << 20);
    return env_cap ? *env_cap : 64;
}

int64_t
resolveCacheBytes(int64_t requested)
{
    if (requested > 0)
        return requested;
    const auto env_bytes = env::readInt64(
        "DTC_SERVE_CACHE_BYTES", 1, int64_t{1} << 40);
    return env_bytes ? *env_bytes : 0; // 0: PreparedCache env default
}

/** Remaining milliseconds before @p deadline_us, clamped >= 0. */
double
remainingMs(double deadline_us)
{
    return std::max(0.0, (deadline_us - obs::monotonicNowUs()) / 1e3);
}

} // namespace

SpmmService::SpmmService(ServeOptions options, const CostModel* cm)
    : opt(std::move(options)),
      costModel(cm ? *cm : CostModel(ArchSpec::rtx4090())),
      preparedCache(resolveCacheBytes(opt.cacheBytes)),
      queueCap(resolveQueueCapacity(opt.queueCapacity))
{
    // Per-request deadlines arrive via the installed CancelToken;
    // the per-entry Runtime must not also read DTC_DEADLINE_MS.
    opt.runtime.deadlineMs = 0;
    opt.runtime.deadlineChecks = 0;
    const int n = resolveThreads(opt.threads);
    inlineMode = opt.deterministic || n == 0;
    if (!inlineMode)
        for (int i = 0; i < n; ++i)
            workers.emplace_back([this] { workerLoop(); });
}

SpmmService::~SpmmService()
{
    {
        std::lock_guard<std::mutex> lock(qmu);
        stopping = true;
        paused = false;
    }
    qcv.notify_all();
    for (std::thread& w : workers)
        w.join();
}

MatrixHandle
SpmmService::attach(const CsrMatrix& a) const
{
    return MatrixHandle{&a};
}

std::future<SubmitResult>
SpmmService::submit(MatrixHandle h, DenseMatrix b, Precision p,
                    SubmitOptions sopt)
{
    DTC_TRACE_SCOPE("serve.submit");
    DTC_CHECK_CODE(h.matrix != nullptr, ErrorCode::InvalidInput,
                   "serve: submit against a null matrix handle");
    DTC_CHECK_CODE(b.rows() == h.matrix->cols(),
                   ErrorCode::InvalidInput,
                   "serve: B has " << b.rows() << " rows, want "
                                   << h.matrix->cols());
    static obs::Counter& submits =
        obs::metrics::counter("serve.submits");
    submits.add(1);

    auto r = std::make_unique<Request>();
    r->entry = preparedCache.acquire(*h.matrix, p);
    r->cacheHit = r->entry->prepared.load(std::memory_order_acquire);
    r->b = std::move(b);
    r->submitUs = obs::monotonicNowUs();
    if (sopt.deadlineMs > 0)
        r->deadlineUs =
            r->submitUs + static_cast<double>(sopt.deadlineMs) * 1e3;
    std::future<SubmitResult> fut = r->promise.get_future();

    if (inlineMode) {
        std::vector<std::unique_ptr<Request>> batch;
        batch.push_back(std::move(r));
        executeBatch(std::move(batch));
        return fut;
    }
    enqueue(std::move(r));
    return fut;
}

SubmitResult
SpmmService::run(MatrixHandle h, const DenseMatrix& b, Precision p,
                 SubmitOptions sopt)
{
    return submit(h, b, p, sopt).get();
}

std::vector<SubmitResult>
SpmmService::runBatch(MatrixHandle h,
                      const std::vector<DenseMatrix>& bs, Precision p,
                      SubmitOptions sopt)
{
    std::vector<SubmitResult> results;
    if (bs.empty())
        return results;

    if (inlineMode) {
        // One coalesced execution, bypassing the queue: the
        // deterministic twin of what the workers do for concurrent
        // same-A traffic.  One call sees one snapshot of A, so the
        // contents are hashed once for the whole batch, not per
        // panel.
        DTC_CHECK_CODE(h.matrix != nullptr, ErrorCode::InvalidInput,
                       "serve: runBatch on a null handle");
        std::shared_ptr<PreparedEntry> entry =
            preparedCache.acquire(*h.matrix, p);
        const bool hit =
            entry->prepared.load(std::memory_order_acquire);
        std::vector<std::unique_ptr<Request>> batch;
        std::vector<std::future<SubmitResult>> futs;
        for (const DenseMatrix& b : bs) {
            DTC_CHECK_CODE(b.rows() == h.matrix->cols(),
                           ErrorCode::InvalidInput,
                           "serve: B has " << b.rows()
                                           << " rows, want "
                                           << h.matrix->cols());
            static obs::Counter& submits =
                obs::metrics::counter("serve.submits");
            submits.add(1);
            auto r = std::make_unique<Request>();
            r->entry = entry;
            r->cacheHit = hit;
            r->borrowedB = &b; // synchronous call: no copy needed
            r->submitUs = obs::monotonicNowUs();
            if (sopt.deadlineMs > 0)
                r->deadlineUs =
                    r->submitUs +
                    static_cast<double>(sopt.deadlineMs) * 1e3;
            futs.push_back(r->promise.get_future());
            batch.push_back(std::move(r));
        }
        executeBatch(std::move(batch));
        for (auto& f : futs)
            results.push_back(f.get());
        return results;
    }

    std::vector<std::future<SubmitResult>> futs;
    for (const DenseMatrix& b : bs)
        futs.push_back(submit(h, b, p, sopt));
    for (auto& f : futs)
        results.push_back(f.get());
    return results;
}

void
SpmmService::enqueue(std::unique_ptr<Request> r)
{
    {
        std::lock_guard<std::mutex> lock(qmu);
        if (static_cast<int64_t>(queue.size()) >= queueCap) {
            static obs::Counter& rejected =
                obs::metrics::counter("serve.rejected");
            rejected.add(1);
            DTC_RAISE(ErrorCode::ResourceExhausted,
                      "serve: admission queue full (capacity "
                          << queueCap << ")");
        }
        queue.push_back(std::move(r));
    }
    qcv.notify_one();
}

void
SpmmService::drain()
{
    std::unique_lock<std::mutex> lock(qmu);
    idleCv.wait(lock, [&] {
        return (queue.empty() || paused) && inFlight == 0;
    });
}

void
SpmmService::pause()
{
    std::lock_guard<std::mutex> lock(qmu);
    paused = true;
}

void
SpmmService::resume()
{
    {
        std::lock_guard<std::mutex> lock(qmu);
        paused = false;
    }
    qcv.notify_all();
}

int64_t
SpmmService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(qmu);
    return static_cast<int64_t>(queue.size());
}

std::vector<std::unique_ptr<SpmmService::Request>>
SpmmService::nextBatch()
{
    std::vector<std::unique_ptr<Request>> batch;
    std::unique_lock<std::mutex> lock(qmu);
    qcv.wait(lock, [&] {
        return stopping || (!paused && !queue.empty());
    });
    if (queue.empty())
        return batch; // stopping, fully drained

    batch.push_back(std::move(queue.front()));
    queue.pop_front();
    // Coalesce queued same-entry requests (same A contents and
    // precision resolve to the same PreparedEntry) into this
    // execution, preserving queue order.
    const PreparedEntry* key = batch.front()->entry.get();
    for (auto it = queue.begin();
         it != queue.end() &&
         static_cast<int64_t>(batch.size()) < opt.maxBatch;) {
        if ((*it)->entry.get() == key) {
            batch.push_back(std::move(*it));
            it = queue.erase(it);
        } else {
            ++it;
        }
    }
    inFlight += static_cast<int>(batch.size());
    return batch;
}

void
SpmmService::workerLoop()
{
    for (;;) {
        std::vector<std::unique_ptr<Request>> batch = nextBatch();
        if (batch.empty())
            return;
        const int n = static_cast<int>(batch.size());
        executeBatch(std::move(batch));
        {
            std::lock_guard<std::mutex> lock(qmu);
            inFlight -= n;
        }
        idleCv.notify_all();
    }
}

void
SpmmService::executeSingle(std::unique_ptr<Request> r)
{
    try {
        CancelToken token;
        const bool own = r->deadlineUs > 0.0;
        if (own) {
            const double rem = remainingMs(r->deadlineUs);
            if (rem <= 0.0) {
                obs::metrics::counter("serve.deadline_expired")
                    .add(1);
                DTC_RAISE(ErrorCode::DeadlineExceeded,
                          "serve: deadline expired before execution");
            }
            token.setDeadlineInMs(rem);
        }
        cancel::ScopedCancel scope(own ? &token : cancel::current());
        SubmitResult res;
        res.preparedCacheHit = r->cacheHit;
        const DenseMatrix& b = r->operandB();
        res.c = DenseMatrix::uninitialized(r->entry->a.rows(), b.cols());
        r->entry->rt->run(b, res.c, &res.report);
        static obs::Histogram& queue_wait =
            obs::metrics::histogram("serve.queue_wait_ms");
        queue_wait.record((obs::monotonicNowUs() - r->submitUs) / 1e3);
        r->promise.set_value(std::move(res));
    } catch (...) {
        r->promise.set_exception(std::current_exception());
    }
}

void
SpmmService::executeBatch(std::vector<std::unique_ptr<Request>> batch)
{
    DTC_TRACE_SCOPE("serve.batch");

    // Requests whose deadline lapsed while queued fail typed, before
    // any prepared state is touched (a dead tenant must not poison
    // the cache or the batch).
    const double now = obs::monotonicNowUs();
    std::vector<std::unique_ptr<Request>> live;
    for (auto& r : batch) {
        if (r->deadlineUs > 0.0 && now >= r->deadlineUs) {
            obs::metrics::counter("serve.deadline_expired_queued")
                .add(1);
            r->promise.set_exception(std::make_exception_ptr(DtcError(
                ErrorCode::DeadlineExceeded,
                "serve: deadline expired while queued")));
        } else {
            live.push_back(std::move(r));
        }
    }
    if (live.empty())
        return;

    // Declared before entryLock so it destroys after it: if the
    // entry was evicted from the cache while this batch was queued,
    // the requests hold the only other refs — executeSingle below
    // destroys them with the lock still held, and without this ref
    // the guard would unlock a freed mutex.
    const std::shared_ptr<PreparedEntry> keepAlive =
        live.front()->entry;

    // Runtime::run is not thread-safe; every execution against one
    // entry serializes here.  Cross-entry batches run concurrently
    // on other workers.
    std::lock_guard<std::mutex> entryLock(keepAlive->mu);
    try {
        live.front()->entry->ensurePrepared(costModel, opt.runtime);
    } catch (...) {
        auto err = std::current_exception();
        for (auto& r : live)
            r->promise.set_exception(err);
        return;
    }

    static obs::Counter& batches =
        obs::metrics::counter("serve.batches");
    static obs::Counter& batched_requests =
        obs::metrics::counter("serve.batched_requests");
    static obs::Histogram& batch_size =
        obs::metrics::histogram("serve.batch_size");
    batches.add(1);
    batched_requests.add(static_cast<uint64_t>(live.size()));
    batch_size.record(static_cast<double>(live.size()));

    if (live.size() == 1) {
        executeSingle(std::move(live.front()));
        return;
    }

    PreparedEntry& entry = *live.front()->entry;
    const int64_t k = entry.a.cols();
    int64_t total_cols = 0;
    for (const auto& r : live)
        total_cols += r->operandB().cols();

    // Column-wise concatenation: SpMM is independent per output
    // column, so each tenant's slice of the wide result is bitwise
    // what a solo run would produce — the kernel just walks A's
    // nonzeros once per panel for the whole batch.
    // Row-major pack: each wide row is filled contiguously in one
    // sweep (request-major order would re-touch every wide row once
    // per member — eight strided passes over the whole panel).
    // Pack and split are plain copies, so running their rows on the
    // pool keeps every slice bitwise equal to a solo run.  They are
    // no cancellation points (parallelFor would check the caller's
    // token per chunk): a deadline that lapses here must neither
    // leave the members' promises unset nor drop a finished result.
    const int64_t row_grain = std::max<int64_t>(
        1, kCopyChunkElems / std::max<int64_t>(1, total_cols));
    // Pack, run and split each write every element of the buffer
    // they fill, so none of the three is zeroed first.
    DenseMatrix wide_b = DenseMatrix::uninitialized(k, total_cols);
    {
        DTC_TRACE_SCOPE("serve.batch.pack");
        cancel::ScopedCancel no_cancel(nullptr);
        parallelFor(0, k, row_grain, [&](int64_t lo, int64_t hi) {
            for (int64_t row = lo; row < hi; ++row) {
                float* dst = wide_b.row(row);
                int64_t col = 0;
                for (const auto& r : live) {
                    const DenseMatrix& b = r->operandB();
                    std::copy(b.row(row), b.row(row) + b.cols(),
                              dst + col);
                    col += b.cols();
                }
            }
        });
    }

    // The batch runs under the earliest member deadline; a trip
    // falls back to solo re-execution so one tenant's tight budget
    // cannot fail its batchmates.
    double min_deadline = 0.0;
    for (const auto& r : live)
        if (r->deadlineUs > 0.0 &&
            (min_deadline == 0.0 || r->deadlineUs < min_deadline))
            min_deadline = r->deadlineUs;

    DenseMatrix wide_c =
        DenseMatrix::uninitialized(entry.a.rows(), total_cols);
    runtime::RunReport report;
    try {
        CancelToken token;
        const bool own = min_deadline > 0.0;
        if (own)
            token.setDeadlineInMs(remainingMs(min_deadline));
        cancel::ScopedCancel scope(own ? &token : cancel::current());
        DTC_TRACE_SCOPE("serve.batch.run");
        entry.rt->run(wide_b, wide_c, &report);
    } catch (const DtcError& e) {
        if (e.code() == ErrorCode::DeadlineExceeded ||
            e.code() == ErrorCode::Cancelled) {
            obs::metrics::counter("serve.batch_deadline_splits")
                .add(1);
            for (auto& r : live)
                executeSingle(std::move(r));
        } else {
            auto err = std::current_exception();
            for (auto& r : live)
                r->promise.set_exception(err);
        }
        return;
    } catch (...) {
        auto err = std::current_exception();
        for (auto& r : live)
            r->promise.set_exception(err);
        return;
    }

    // Row-major split, mirroring the pack: one sweep over wide C.
    static obs::Histogram& queue_wait =
        obs::metrics::histogram("serve.queue_wait_ms");
    const double done = obs::monotonicNowUs();
    std::vector<SubmitResult> results(live.size());
    for (size_t i = 0; i < live.size(); ++i)
        results[i].c = DenseMatrix::uninitialized(
            entry.a.rows(), live[i]->operandB().cols());
    {
        DTC_TRACE_SCOPE("serve.batch.split");
        cancel::ScopedCancel no_cancel(nullptr);
        parallelFor(0, entry.a.rows(), row_grain,
                    [&](int64_t lo, int64_t hi) {
            for (int64_t row = lo; row < hi; ++row) {
                const float* src = wide_c.row(row);
                int64_t col = 0;
                for (size_t i = 0; i < live.size(); ++i) {
                    const int64_t n = results[i].c.cols();
                    std::copy(src + col, src + col + n,
                              results[i].c.row(row));
                    col += n;
                }
            }
        });
    }
    for (size_t i = 0; i < live.size(); ++i) {
        SubmitResult& res = results[i];
        res.report = report;
        res.preparedCacheHit = live[i]->cacheHit;
        res.batchSize = static_cast<int64_t>(live.size());
        queue_wait.record((done - live[i]->submitUs) / 1e3);
        live[i]->promise.set_value(std::move(res));
    }
}

} // namespace serve
} // namespace dtc
