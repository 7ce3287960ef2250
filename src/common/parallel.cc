#include "common/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>

#include "common/cancel.h"
#include "common/check.h"
#include "common/env.h"

namespace dtc {

namespace {

thread_local int tlsNumThreadsOverride = 0;
thread_local bool tlsInsidePoolTask = false;
thread_local int64_t tlsChunkOrdinal = -1;

/** RAII chunk-ordinal marker; exception-safe, nests (inner wins). */
class ChunkOrdinalScope
{
  public:
    explicit ChunkOrdinalScope(int64_t ordinal) : prev(tlsChunkOrdinal)
    {
        tlsChunkOrdinal = ordinal;
    }
    ~ChunkOrdinalScope() { tlsChunkOrdinal = prev; }

  private:
    int64_t prev;
};

/**
 * Polls @p done, yielding the CPU between polls, until it holds or
 * ThreadPool::kSpinMs have passed; returns whether it held.
 */
template <typename Done>
bool
spinUntil(Done done)
{
    const auto limit = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ThreadPool::kSpinMs);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= limit)
            return false;
        std::this_thread::yield();
    }
    return true;
}

} // namespace

ThreadPool::ThreadPool(int num_workers)
{
    DTC_CHECK(num_workers >= 0);
    ensureWorkers(num_workers);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    wakeCv.notify_all();
    for (std::thread& t : workers)
        t.join();
}

int
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lk(mu);
    return static_cast<int>(workers.size());
}

void
ThreadPool::ensureWorkers(int num_workers)
{
    std::lock_guard<std::mutex> lk(mu);
    DTC_ASSERT(!stopping);
    while (static_cast<int>(workers.size()) < num_workers)
        workers.emplace_back([this] { workerLoop(); });
    spin = workers.size() < std::thread::hardware_concurrency();
}

void
ThreadPool::drainTasks(const std::function<void(int64_t)>& task,
                       int64_t num_tasks)
{
    tlsInsidePoolTask = true;
    int64_t i;
    while ((i = nextTask.fetch_add(1, std::memory_order_relaxed)) <
           num_tasks) {
        task(i);
        std::lock_guard<std::mutex> lk(mu);
        ++jobCompleted;
    }
    tlsInsidePoolTask = false;
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        if (spin && !stopping && jobGeneration == seen) {
            lk.unlock();
            spinUntil([&] { return stopping || jobGeneration != seen; });
            lk.lock();
        }
        wakeCv.wait(lk,
                    [&] { return stopping || jobGeneration != seen; });
        if (stopping)
            return;
        seen = jobGeneration;
        if (job == nullptr || jobEntered >= jobMaxWorkers)
            continue;
        ++jobEntered;
        ++jobActive;
        const std::function<void(int64_t)>* task = job;
        const int64_t num_tasks = jobNumTasks;
        lk.unlock();
        drainTasks(*task, num_tasks);
        lk.lock();
        --jobActive;
        doneCv.notify_all();
    }
}

void
ThreadPool::run(int64_t num_tasks, int max_threads,
                const std::function<void(int64_t)>& task)
{
    DTC_CHECK(!tlsInsidePoolTask);
    if (num_tasks <= 0)
        return;
    // One job at a time: concurrent submitters queue up here.
    std::lock_guard<std::mutex> run_lk(runMu);
    bool poll;
    {
        std::lock_guard<std::mutex> lk(mu);
        poll = spin;
        job = &task;
        jobNumTasks = num_tasks;
        jobMaxWorkers = std::max(0, max_threads - 1);
        jobEntered = 0;
        jobActive = 0;
        jobCompleted = 0;
        nextTask.store(0, std::memory_order_relaxed);
        ++jobGeneration;
    }
    wakeCv.notify_all();

    drainTasks(task, num_tasks);

    const auto finished = [&] {
        return jobCompleted == num_tasks && jobActive == 0;
    };
    if (poll)
        spinUntil(finished);
    std::unique_lock<std::mutex> lk(mu);
    doneCv.wait(lk, finished);
    job = nullptr;
}

ThreadPool&
ThreadPool::global()
{
    static ThreadPool pool(std::max(0, defaultNumThreads() - 1));
    return pool;
}

bool
ThreadPool::insideTask()
{
    return tlsInsidePoolTask;
}

int
defaultNumThreads()
{
    // Re-read the environment on every call so tests and tools can
    // toggle DTC_NUM_THREADS without touching pool state.  Garbage
    // or out-of-range values raise a typed InvalidInput instead of
    // silently falling back to hardware concurrency.
    if (auto v = env::readInt64("DTC_NUM_THREADS", 1, 1024))
        return static_cast<int>(*v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

int64_t
currentChunkOrdinal()
{
    return tlsChunkOrdinal;
}

int
currentNumThreads()
{
    if (tlsNumThreadsOverride > 0)
        return tlsNumThreadsOverride;
    return defaultNumThreads();
}

ScopedNumThreads::ScopedNumThreads(int num_threads)
    : prev(tlsNumThreadsOverride)
{
    DTC_CHECK(num_threads >= 1);
    tlsNumThreadsOverride = num_threads;
}

ScopedNumThreads::~ScopedNumThreads()
{
    tlsNumThreadsOverride = prev;
}

void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int64_t)>& body)
{
    if (end <= begin)
        return;
    const int64_t g = grain > 0 ? grain : 1;
    const int64_t num_chunks = (end - begin + g - 1) / g;
    const int threads = currentNumThreads();

    // The submitting thread's cancel token rides into every chunk,
    // polled at each chunk boundary — the cooperative abort point of
    // runWithDeadline (common/cancel.h).
    CancelToken* tok = cancel::current();

    // Serial fallback: one thread requested, a single chunk, or a
    // nested call from inside a pool task (which would deadlock the
    // single-job pool).  Chunk boundaries are identical either way.
    if (threads <= 1 || num_chunks == 1 || ThreadPool::insideTask()) {
        for (int64_t c = 0; c < num_chunks; ++c) {
            if (tok)
                tok->check();
            const int64_t b = begin + c * g;
            ChunkOrdinalScope scope(c);
            body(b, std::min(b + g, end));
        }
        return;
    }

    ThreadPool& pool = ThreadPool::global();
    pool.ensureWorkers(threads - 1);

    std::mutex err_mu;
    std::exception_ptr err;
    int64_t err_chunk = std::numeric_limits<int64_t>::max();
    std::atomic<bool> failed{false};

    pool.run(num_chunks, threads, [&](int64_t c) {
        if (failed.load(std::memory_order_relaxed))
            return;
        const int64_t b = begin + c * g;
        try {
            cancel::ScopedCancel cancel_scope(tok);
            if (tok)
                tok->check();
            ChunkOrdinalScope scope(c);
            body(b, std::min(b + g, end));
        } catch (...) {
            std::lock_guard<std::mutex> lk(err_mu);
            if (c < err_chunk) {
                err_chunk = c;
                err = std::current_exception();
            }
            failed.store(true, std::memory_order_relaxed);
        }
    });

    if (err)
        std::rethrow_exception(err);
}

} // namespace dtc
