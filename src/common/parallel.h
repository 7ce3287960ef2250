/**
 * @file
 * Parallel runtime for host-side hot paths: a lazily-initialized
 * global ThreadPool plus parallelFor / parallelReduce helpers.
 *
 * Determinism contract: the chunk decomposition of a range depends
 * only on (begin, end, grain) — never on the thread count — and
 * parallelReduce folds chunk partials in ascending chunk order.  A
 * body whose chunks write disjoint outputs (every use in this
 * library) therefore produces bitwise-identical results for any
 * DTC_NUM_THREADS, including the serial threads=1 fallback.
 *
 * Thread count resolution, strongest first:
 *   1. an active ScopedNumThreads override on the calling thread,
 *   2. the DTC_NUM_THREADS environment variable (re-read per call so
 *      tests can toggle it),
 *   3. std::thread::hardware_concurrency().
 *
 * Nested parallelFor calls (a body that itself calls parallelFor)
 * run the inner loop serially on the worker, so they can never
 * deadlock the pool.
 */
#ifndef DTC_COMMON_PARALLEL_H
#define DTC_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dtc {

/**
 * A chunked-static thread pool.  One job runs at a time; workers and
 * the submitting thread pull task indices from a shared counter, so
 * scheduling is dynamic but the task set itself is fixed up front.
 *
 * Idle threads poll before they block: a worker that finished a job
 * polls for the next one, and the submitter polls for the last chunk,
 * each for up to kSpinMs, yielding the CPU on every poll.  A blocked
 * thread leaves its CPU idle, and waking an idle CPU — above all a
 * virtual machine's vCPU on a loaded host — can take from microseconds
 * to milliseconds.  Callers that alternate short serial steps (a guard
 * check, filling the next operand) with parallel phases would pay that
 * wake-up, at a size that varies with host load, on every phase.  Only
 * a pool whose threads fit the hardware (workers + 1 submitter <=
 * hardware_concurrency) polls; an oversubscribed one blocks at once.
 *
 * Most code should not touch this class directly — use parallelFor /
 * parallelReduce, which drive the lazily-created global() pool.
 */
class ThreadPool
{
  public:
    /** How long an idle thread polls before it blocks. */
    static constexpr int kSpinMs = 50;

    /** Spawns @p num_workers worker threads (0 is valid). */
    explicit ThreadPool(int num_workers);

    /** Stops and joins all workers; pending jobs must be finished. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Current worker-thread count (excluding submitting threads). */
    int workerCount() const;

    /** Grows the worker set to at least @p num_workers threads. */
    void ensureWorkers(int num_workers);

    /**
     * Runs @p task(i) for every i in [0, num_tasks), on up to
     * @p max_threads threads including the calling thread, and blocks
     * until all tasks finished.  @p task must not throw (parallelFor
     * wraps bodies to capture exceptions).  Not reentrant: must not
     * be called from inside a pool task.
     */
    void run(int64_t num_tasks, int max_threads,
             const std::function<void(int64_t)>& task);

    /** The process-wide pool, created on first use. */
    static ThreadPool& global();

    /** True on a thread currently executing a pool task. */
    static bool insideTask();

  private:
    void workerLoop();
    void drainTasks(const std::function<void(int64_t)>& task,
                    int64_t num_tasks);

    /** Serializes run() submissions (one job in flight at a time). */
    std::mutex runMu;

    mutable std::mutex mu;
    std::condition_variable wakeCv;
    std::condition_variable doneCv;
    std::vector<std::thread> workers;
    /** workers + 1 <= hardware_concurrency; written under mu. */
    bool spin = false;

    // Pool and in-flight job state, written under mu except nextTask;
    // polling threads also read the atomics without mu.
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> jobGeneration{0};
    const std::function<void(int64_t)>* job = nullptr;
    int64_t jobNumTasks = 0;
    int jobMaxWorkers = 0;
    int jobEntered = 0;
    std::atomic<int> jobActive{0};
    std::atomic<int64_t> jobCompleted{0};
    std::atomic<int64_t> nextTask{0};
};

/**
 * Number of threads parallelFor would use right now on this thread
 * (>= 1): ScopedNumThreads override, else DTC_NUM_THREADS, else
 * hardware concurrency.
 */
int currentNumThreads();

/**
 * Ordinal of the parallelFor chunk executing on this thread, or -1
 * outside any chunk.  The ordinal is the chunk's position in the
 * deterministic decomposition of (begin, end, grain) — identical for
 * every thread count — which is what lets fault injection
 * (common/fault.h) fire deterministically inside parallel regions.
 */
int64_t currentChunkOrdinal();

/** Thread count from DTC_NUM_THREADS / hardware, ignoring overrides. */
int defaultNumThreads();

/**
 * RAII thread-count override for the current thread — used by
 * benchmarks and the parallel-vs-serial equivalence tests to pin the
 * width of every parallelFor in scope.  Nests; restores on exit.
 */
class ScopedNumThreads
{
  public:
    explicit ScopedNumThreads(int num_threads);
    ~ScopedNumThreads();

    ScopedNumThreads(const ScopedNumThreads&) = delete;
    ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

  private:
    int prev;
};

/**
 * Runs @p body(chunk_begin, chunk_end) over [begin, end) split into
 * ceil((end-begin)/grain) contiguous chunks of at most @p grain
 * elements.  Chunks may run concurrently; the decomposition is a
 * pure function of (begin, end, grain).
 *
 * The first exception (from the lowest-indexed throwing chunk) is
 * rethrown on the calling thread; once a chunk throws, chunks not
 * yet started are skipped.
 */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

/**
 * Parallel reduction with a deterministic ordered merge: computes
 * @p chunk(chunk_begin, chunk_end) -> T for each chunk (concurrently)
 * and folds the partials left-to-right in chunk order with
 * @p combine(acc, partial), starting from @p init.  Identical chunk
 * structure and fold order for every thread count, so floating-point
 * results are bitwise-stable.
 */
template <typename T, typename ChunkFn, typename CombineFn>
T
parallelReduce(int64_t begin, int64_t end, int64_t grain, T init,
               ChunkFn&& chunk, CombineFn&& combine)
{
    if (end <= begin)
        return init;
    const int64_t g = grain > 0 ? grain : 1;
    const int64_t num_chunks = (end - begin + g - 1) / g;
    std::vector<T> partials(static_cast<size_t>(num_chunks), init);
    parallelFor(begin, end, g, [&](int64_t b, int64_t e) {
        partials[static_cast<size_t>((b - begin) / g)] = chunk(b, e);
    });
    T acc = std::move(init);
    for (int64_t i = 0; i < num_chunks; ++i)
        acc = combine(std::move(acc),
                      std::move(partials[static_cast<size_t>(i)]));
    return acc;
}

} // namespace dtc

#endif // DTC_COMMON_PARALLEL_H
