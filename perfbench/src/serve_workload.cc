/**
 * @file
 * serve_mixed: SpmmService under an open loop.  One generator thread
 * sends Poisson arrivals on a schedule, rung by rung up a fixed
 * ladder of rates, from a Zipf-popular pool of tenant matrices, and
 * between sends timestamps each future as it becomes ready and hashes
 * its C.  After the ladder every hash is compared with a
 * deterministic-mode replay of the same request.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "gpusim/cost_model.h"
#include "naive_ref.h"
#include "obs/metrics.h"
#include "probes.h"
#include "reorder/tca.h"
#include "runtime/runtime.h"
#include "serve/service.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dtc::CsrMatrix;
using dtc::DenseMatrix;
using dtc::Precision;
namespace rt = dtc::runtime;
namespace sv = dtc::serve;

/**
 * Tenant pool, most popular first (Zipf rank = index): small
 * matrices lead, so the cache keeps the head and the large tail
 * tenants are the ones that miss.
 */
struct TenantSpec
{
    enum Gen { Community, PowerLaw, Components, Banded } gen;
    int64_t rows;
};

constexpr TenantSpec kTenants[] = {
    {TenantSpec::Community, 4096},   {TenantSpec::PowerLaw, 2048},
    {TenantSpec::Banded, 3072},      {TenantSpec::Components, 4096},
    {TenantSpec::Banded, 6144},      {TenantSpec::PowerLaw, 6144},
    {TenantSpec::Community, 8192},   {TenantSpec::Components, 8192},
    {TenantSpec::PowerLaw, 12288},   {TenantSpec::Banded, 12288},
    {TenantSpec::Components, 16384}, {TenantSpec::Community, 16384},
};
constexpr int kNumTenants = static_cast<int>(std::size(kTenants));
constexpr double kZipfSkew = 1.8;
constexpr int64_t kWidths[] = {16, 32};
constexpr double kFp32Share = 0.2; ///< Rest is Tf32.
/** Distinct B panels per (tenant, width); requests pick one. */
constexpr int kVariants = 4;

/** Rate ladder (req/s) and each rung's share of --seconds. */
constexpr double kRungRps[] = {50, 100, 150, 200};
constexpr double kRungShare[] = {0.1, 0.5, 0.2, 0.2};
constexpr int kNumRungs = static_cast<int>(std::size(kRungRps));
constexpr int kNominalRung = 1;

/**
 * The generator's poll period while waiting for futures (bounds how
 * late a completion is timestamped), and the idle time before the next
 * send it needs to hash a stored result instead.
 */
constexpr double kPollMs = 0.05;
constexpr double kHashSlackMs = 1.0;

/** Latency limit of serve_ok_ratio / serve_max_rps, also the deadline. */
constexpr double kLimitMs = 2000.0;
/** Serve workers; with the generator thread, 4 busy threads. */
constexpr int kServeThreads = 3;
/**
 * Admission queue: room for ~1 s of the top rung, so a momentary
 * stall of the host (all workers descheduled or paying misses) queues
 * instead of rejecting.
 */
constexpr int64_t kQueueCapacity = 256;
/**
 * Requests still outstanding when a rung's last one is sent, above
 * which its backlog counts as grown; a steady backlog stays at a few.
 */
constexpr int64_t kMaxBacklog = 32;
constexpr int kSetupReps = 5;
constexpr int kReplayThreads = 4;

CsrMatrix
makeTenant(const TenantSpec& t, dtc::Rng& rng)
{
    const int64_t n = t.rows;
    switch (t.gen) {
      case TenantSpec::Community:
        return dtc::genCommunity(n, std::max<int64_t>(4, n / 512), 24.0,
                                 0.8, rng);
      case TenantSpec::PowerLaw:
        return dtc::genPowerLaw(n, 8.0, 1.0, rng);
      case TenantSpec::Components:
        return dtc::genComponents(n, 8, 28, 0.3, rng);
      case TenantSpec::Banded:
        return dtc::genBanded(n, 48, 12.0, rng);
    }
    return {};
}

struct Pool
{
    std::vector<CsrMatrix> mats;
    /** panels[(tenant * widths + w) * kVariants + v] */
    std::vector<DenseMatrix> panels;

    const DenseMatrix& panel(int t, int w, int v) const
    {
        return panels[static_cast<size_t>(
            (t * static_cast<int>(std::size(kWidths)) + w) * kVariants + v)];
    }
};

Pool
makePool(uint64_t seed)
{
    Pool p;
    dtc::Rng rng(mix64(seed ^ 0x7e4a47));
    for (const TenantSpec& t : kTenants)
        p.mats.push_back(dtc::shuffleLabels(makeTenant(t, rng), rng));
    for (int t = 0; t < kNumTenants; ++t)
        for (int64_t n : kWidths)
            for (int v = 0; v < kVariants; ++v) {
                DenseMatrix b(p.mats[t].cols(), n);
                fillDense(b, seed,
                          static_cast<uint64_t>((t * 64 + n) * 16 + v));
                p.panels.push_back(std::move(b));
            }
    return p;
}

struct Request
{
    double dueMs = 0; ///< Scheduled send, relative to the rung start.
    int rung = 0, tenant = 0, width = 0, variant = 0;
    Precision p = Precision::Tf32;
};

/**
 * Poisson arrivals with a fixed count per rung: rate x length
 * exponential gaps, rescaled to end with the rung, so every seed
 * offers exactly the same load and only its timing varies.
 */
std::vector<Request>
makeSchedule(double seconds, uint64_t seed)
{
    std::vector<Request> s;
    dtc::Rng rng(mix64(seed ^ 0x5c4ed));
    for (int r = 0; r < kNumRungs; ++r) {
        const double len_ms = seconds * 1e3 * kRungShare[r];
        const int64_t count =
            std::max<int64_t>(1, std::llround(kRungRps[r] * len_ms / 1e3));
        std::vector<double> due;
        double t = 0;
        for (int64_t i = 0; i <= count; ++i) {
            t += -std::log(1.0 - rng.nextDouble());
            due.push_back(t);
        }
        for (int64_t i = 0; i < count; ++i) {
            Request q;
            q.dueMs = due[i] * len_ms / due[count];
            q.rung = r;
            q.tenant = static_cast<int>(rng.nextZipf(kNumTenants, kZipfSkew));
            q.width = static_cast<int>(rng.nextBounded(std::size(kWidths)));
            q.variant = static_cast<int>(rng.nextBounded(kVariants));
            q.p = rng.nextBernoulli(kFp32Share) ? Precision::Fp32
                                                : Precision::Tf32;
            s.push_back(q);
        }
    }
    return s;
}

double
flopsOf(const Pool& pool, const Request& q)
{
    return 2.0 * static_cast<double>(pool.mats[q.tenant].nnz()) *
           static_cast<double>(kWidths[q.width]);
}

/** Prepared bytes of every (tenant, precision) entry the pool can use. */
int64_t
poolPreparedBytes(const Pool& pool)
{
    int64_t bytes = 0;
    for (const CsrMatrix& m : pool.mats)
        bytes += 2 * sv::PreparedCache::entryBytes(m); // Tf32 + Fp32
    return bytes;
}

enum class Status { Pending, Ok, Rejected, Expired, Error };

struct Outcome
{
    Status status = Status::Pending;
    double sentMs = 0;    ///< Absolute nowMs() of the submit call.
    double latencyMs = 0; ///< Scheduled send -> future ready.
    double lagMs = 0;     ///< How late the generator sent it.
    uint64_t hash = 0;
    rt::RunReport report;
};

struct RungStats
{
    int64_t sent = 0, ok = 0, withinLimit = 0;
    int64_t depthMax = 0;
    int64_t outstandingAtEnd = 0;
    double lenMs = 0;
    std::vector<double> latency;
    /** Runtime::run executions during the rung (runtime.run_ms). */
    double runP50 = 0, runP90 = 0, runSumMs = 0;
    int64_t runs = 0;
};

/**
 * Runs the whole ladder against @p svc on the calling thread, which is
 * both the open-loop generator and the collector: between sends it
 * polls the in-flight futures, timestamps each as it becomes ready
 * and hashes its C.
 */
class LadderRun
{
  public:
    LadderRun(sv::SpmmService& svc, const Pool& pool,
              const std::vector<Request>& sched)
        : svc(svc), pool(pool), sched(sched), out(sched.size())
    {
        for (const CsrMatrix& m : pool.mats)
            handles.push_back(svc.attach(m));
    }

    void run()
    {
        rungStats.assign(kNumRungs, RungStats{});
        auto& run_ms = dtc::obs::metrics::histogram("runtime.run_ms");
        size_t i = 0;
        for (int r = 0; r < kNumRungs; ++r) {
            RungStats& rs = rungStats[r];
            run_ms.reset();
            const double base = nowMs();
            for (; i < sched.size() && sched[i].rung == r; ++i) {
                const double due = base + sched[i].dueMs;
                while (nowMs() < due)
                    poll(due);
                send(i, due, rs);
            }
            rs.outstandingAtEnd = static_cast<int64_t>(pending.size());
            // Drain between rungs so no rung inherits a backlog.
            while (!pending.empty())
                poll(nowMs() + 1e3);
            rs.lenMs = nowMs() - base;
            rs.runP50 = run_ms.quantile(0.5);
            rs.runP90 = run_ms.quantile(0.9);
            rs.runSumMs = run_ms.sum();
            rs.runs = run_ms.count();
        }
        while (!unhashed.empty())
            hashOne();
    }

    const std::vector<Outcome>& outcomes() const { return out; }
    const std::vector<RungStats>& rungs() const { return rungStats; }
    int64_t depthMax() const { return maxDepth; }

  private:
    struct InFlight
    {
        size_t idx;
        std::future<sv::SubmitResult> fut;
    };

    void send(size_t i, double due, RungStats& rs)
    {
        const Request& q = sched[i];
        Outcome& o = out[i];
        o.sentMs = nowMs();
        o.lagMs = std::max(0.0, o.sentMs - due);
        ++rs.sent;
        sv::SubmitOptions sopt;
        sopt.deadlineMs = static_cast<int64_t>(kLimitMs);
        try {
            Span s("serve.SpmmService::submit", static_cast<int64_t>(i));
            pending.push_back(
                {i, svc.submit(handles[q.tenant],
                               pool.panel(q.tenant, q.width, q.variant), q.p,
                               sopt)});
        } catch (const dtc::DtcError&) {
            o.status = Status::Rejected;
        }
        const int64_t depth = svc.queueDepth();
        rs.depthMax = std::max(rs.depthMax, depth);
        maxDepth = std::max(maxDepth, depth);
    }

    /**
     * Timestamps and resolves every ready future first; otherwise, if
     * the next send is far enough off, hashes one stored result;
     * otherwise waits up to kPollMs (never past @p until) for the
     * oldest future.
     */
    void poll(double until)
    {
        std::vector<std::pair<InFlight, double>> ready;
        for (size_t k = 0; k < pending.size();) {
            if (pending[k].fut.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                ready.emplace_back(std::move(pending[k]), nowMs());
                pending.erase(pending.begin() + static_cast<long>(k));
            } else {
                ++k;
            }
        }
        for (auto& [f, at] : ready)
            finish(f, at);
        if (!ready.empty())
            return;
        if (!unhashed.empty() && until - nowMs() > kHashSlackMs) {
            hashOne();
            return;
        }
        const double wait_ms = std::min(kPollMs, until - nowMs());
        if (wait_ms <= 0)
            return;
        const auto wait = std::chrono::duration<double, std::milli>(wait_ms);
        if (pending.empty())
            std::this_thread::sleep_for(wait);
        else
            pending.front().fut.wait_for(wait);
    }

    /** Records a ready request; its C waits in `unhashed`. */
    void finish(InFlight& f, double ready_ms)
    {
        Outcome& o = out[f.idx];
        const double due = o.sentMs - o.lagMs;
        o.latencyMs = ready_ms - due;
        spans::record("serve.submit->ready", o.sentMs, ready_ms,
                      static_cast<int64_t>(f.idx));
        try {
            sv::SubmitResult res = f.fut.get();
            o.report = std::move(res.report);
            o.status = Status::Ok;
            unhashed.push_back({f.idx, std::move(res.c)});
        } catch (const dtc::DtcError& e) {
            o.status = e.code() == dtc::ErrorCode::DeadlineExceeded
                           ? Status::Expired
                           : Status::Error;
        } catch (const std::exception&) {
            o.status = Status::Error;
        }
    }

    void hashOne()
    {
        out[unhashed.front().first].hash = hashDense(unhashed.front().second);
        unhashed.pop_front();
    }

    sv::SpmmService& svc;
    const Pool& pool;
    const std::vector<Request>& sched;
    std::vector<Outcome> out;
    std::vector<sv::MatrixHandle> handles;
    std::vector<InFlight> pending;
    /** Served results not yet hashed (hashing waits for idle time). */
    std::deque<std::pair<size_t, DenseMatrix>> unhashed;
    std::vector<RungStats> rungStats;
    int64_t maxDepth = 0;
};

sv::ServeOptions
serveOptions(const Pool& pool)
{
    sv::ServeOptions o;
    o.threads = kServeThreads;
    o.queueCapacity = kQueueCapacity;
    // The pool's prepared bytes are ~2x the budget, so the Zipf tail
    // keeps missing and evicting while the head stays cached.
    o.cacheBytes = poolPreparedBytes(pool) / 2;
    return o;
}

/**
 * Service up plus one cold request per tenant, sent one after another
 * (a sum of per-tenant costs, not a makespan that depends on which
 * worker drew which tenant); returns ms.
 */
double
setUpService(std::unique_ptr<sv::SpmmService>& svc, const Pool& pool,
             OpCounts& ops)
{
    Span s("setup");
    svc = std::make_unique<sv::SpmmService>(serveOptions(pool));
    std::vector<sv::SubmitResult> res;
    for (int t = 0; t < kNumTenants; ++t)
        res.push_back(svc->submit(svc->attach(pool.mats[t]),
                                  pool.panel(t, 1, 0), Precision::Tf32)
                          .get());
    const double ms = s.stop();
    for (int t = 0; t < kNumTenants; ++t) {
        ++ops.attempted;
        ++ops.checked;
        const std::string bad =
            checkSpmm(pool.mats[t], pool.panel(t, 1, 0), res[t].c,
                      res[t].report.kernel, res[t].report.precision);
        if (!bad.empty()) {
            ++ops.wrong;
            std::printf("CHECK FAILED setup tenant %d: %s\n", t, bad.c_str());
        }
    }
    return ms;
}

/**
 * Replays every distinct request in deterministic mode, checks each
 * replay against the naive reference, and compares every served hash
 * with its replay's.
 */
void
replayAndCompare(const Pool& pool, const std::vector<Request>& sched,
                 const std::vector<Outcome>& outs, OpCounts& ops)
{
    dtc::ScopedNumThreads nt(kReplayThreads);
    sv::ServeOptions o;
    o.deterministic = true;
    o.cacheBytes = 4 * poolPreparedBytes(pool); // no evictions
    sv::SpmmService svc(o);
    std::map<std::tuple<int, int, int, int>, uint64_t> replayed;
    int64_t compared = 0, mismatches = 0;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (outs[i].status != Status::Ok)
            continue;
        const Request& q = sched[i];
        const auto key = std::make_tuple(q.tenant, q.width, q.variant,
                                         static_cast<int>(q.p));
        auto it = replayed.find(key);
        if (it == replayed.end()) {
            const DenseMatrix& b = pool.panel(q.tenant, q.width, q.variant);
            const sv::SubmitResult r =
                svc.run(svc.attach(pool.mats[q.tenant]), b, q.p);
            ++ops.checked;
            const std::string bad = checkSpmm(pool.mats[q.tenant], b, r.c,
                                              r.report.kernel,
                                              r.report.precision);
            if (!bad.empty()) {
                ++ops.wrong;
                std::printf("CHECK FAILED replay tenant %d: %s\n", q.tenant,
                            bad.c_str());
            }
            it = replayed.emplace(key, hashDense(r.c)).first;
        }
        ++compared;
        mismatches += it->second != outs[i].hash;
    }
    ops.checked += compared;
    ops.wrong += mismatches;
    std::printf("replay: %zu distinct requests, %lld served hashes "
                "compared, %lld mismatches\n",
                replayed.size(), static_cast<long long>(compared),
                static_cast<long long>(mismatches));
}

/** Reads the serve.* per-layer metrics from the registry. */
void
addServeLayerMetrics(sv::SpmmService& svc, int64_t depth_max,
                     Report& out)
{
    using dtc::obs::metrics::counterValue;
    auto& wait = dtc::obs::metrics::histogram("serve.queue_wait_ms");
    auto& batch = dtc::obs::metrics::histogram("serve.batch_size");
    const double hits = static_cast<double>(counterValue("serve.cache.hits"));
    const double misses =
        static_cast<double>(counterValue("serve.cache.misses"));
    out.add("serve.queue_wait_ms_p50", wait.quantile(0.5), "ms", wait.count());
    out.add("serve.queue_wait_ms_p99", wait.quantile(0.99), "ms",
            wait.count());
    out.add("serve.batch_size_mean",
            batch.count() ? batch.sum() / static_cast<double>(batch.count())
                          : 0.0,
            "count", batch.count());
    out.add("serve.cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
            static_cast<int64_t>(hits + misses));
    out.add("serve.cache_evictions",
            static_cast<double>(counterValue("serve.cache.evictions")),
            "count", 1);
    out.add("serve.cache_bytes",
            static_cast<double>(svc.cache().residentBytes()),
            "B", 1);
    out.add("serve.rejected",
            static_cast<double>(counterValue("serve.rejected")), "count", 1);
    out.add("serve.deadline_expired",
            static_cast<double>(counterValue("serve.deadline_expired") +
                                counterValue("serve.deadline_expired_queued")),
            "count", 1);
    out.add("serve.queue_depth_max", static_cast<double>(depth_max), "count",
            1);
}

/**
 * The nominal rung's tail latencies: printed by every run, in the
 * result of the traced run only (see README.md).
 */
void
addTails(const RungStats& nom, bool in_result, Report& out)
{
    out.add("call_ms_p90", nom.runP90, "ms", nom.runs, in_result);
    out.add("serve_ms_p99", quantile(nom.latency, 0.99), "ms", nom.ok,
            in_result);
}

/** A rung passes when p99 <= limit, all succeeded, no backlog grew. */
bool
rungPasses(const RungStats& r)
{
    return r.sent > 0 && r.ok == r.sent &&
           quantile(r.latency, 0.99) <= kLimitMs &&
           r.outstandingAtEnd <= kMaxBacklog;
}

} // namespace

void
probeServeLayer(const CsrMatrix& a, int64_t n, Precision p, int requests,
                uint64_t seed, Report& out)
{
    dtc::obs::metrics::reset();
    sv::ServeOptions o;
    o.threads = kServeThreads;
    sv::SpmmService svc(o);
    const sv::MatrixHandle h = svc.attach(a);
    std::vector<std::future<sv::SubmitResult>> futs;
    int64_t depth_max = 0;
    for (int i = 0; i < requests; ++i) {
        DenseMatrix b(a.cols(), n);
        fillDense(b, seed, 0x5e7e0000ull + static_cast<uint64_t>(i));
        Span s("serve.SpmmService::submit", i);
        futs.push_back(svc.submit(h, std::move(b), p));
        depth_max = std::max(depth_max, svc.queueDepth());
    }
    for (auto& f : futs)
        f.get();
    addServeLayerMetrics(svc, depth_max, out);
}

void
runServeWorkload(const Options& opt, Report& out, OpCounts& ops)
{
    // Workers compute serially: the generator and 3 workers stay
    // within 4 busy threads.
    setenv("DTC_NUM_THREADS", "1", 1);
    const Pool pool = makePool(opt.seed); // not timed
    const std::vector<Request> sched = makeSchedule(opt.seconds, opt.seed);
    int64_t pool_nnz = 0;
    for (const CsrMatrix& m : pool.mats)
        pool_nnz += m.nnz();
    std::printf("workload serve_mixed: %d tenants, %lld nnz, %zu requests, "
                "cache budget %lld of %lld prepared bytes\n",
                kNumTenants, static_cast<long long>(pool_nnz), sched.size(),
                static_cast<long long>(poolPreparedBytes(pool) / 2),
                static_cast<long long>(poolPreparedBytes(pool)));

    std::unique_ptr<sv::SpmmService> svc;
    std::vector<double> setup_ms;
    for (int i = 0; i < (opt.trace ? 1 : kSetupReps); ++i) {
        svc.reset();
        setup_ms.push_back(setUpService(svc, pool, ops));
    }

    dtc::obs::metrics::reset();
    LadderRun ladder(*svc, pool, sched);
    const double t0 = nowMs();
    ladder.run();
    const double ladder_ms = nowMs() - t0;

    const std::vector<Outcome>& outs = ladder.outcomes();
    std::vector<RungStats> rungs = ladder.rungs();
    std::vector<double> lag;
    double nomFlops = 0; // 2 nnz N of the nominal rung's successes
    for (size_t i = 0; i < sched.size(); ++i) {
        const Outcome& o = outs[i];
        RungStats& rs = rungs[sched[i].rung];
        ++ops.attempted;
        lag.push_back(o.lagMs);
        if (o.status != Status::Ok) {
            ++ops.failed;
            continue;
        }
        ++rs.ok;
        rs.withinLimit += o.latencyMs <= kLimitMs;
        rs.latency.push_back(o.latencyMs);
        if (sched[i].rung == kNominalRung)
            nomFlops += flopsOf(pool, sched[i]);
    }
    int64_t within = 0;
    double max_rps = 0;
    for (int r = 0; r < kNumRungs; ++r) {
        const RungStats& rs = rungs[r];
        within += rs.withinLimit;
        const bool pass = rungPasses(rs);
        if (pass)
            max_rps = static_cast<double>(rs.ok) * 1e3 / rs.lenMs;
        std::printf("rung %d: %.0f req/s offered, %lld sent, %lld ok, p50 "
                    "%.2f ms, p99 %.2f ms, depth max %lld, outstanding at "
                    "end %lld, %s\n",
                    r, kRungRps[r], static_cast<long long>(rs.sent),
                    static_cast<long long>(rs.ok), quantile(rs.latency, 0.5),
                    quantile(rs.latency, 0.99),
                    static_cast<long long>(rs.depthMax),
                    static_cast<long long>(rs.outstandingAtEnd),
                    pass ? "pass" : "FAIL");
    }
    std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
                static_cast<unsigned long long>(
                    dtc::obs::metrics::counterValue("serve.cache.hits")),
                static_cast<unsigned long long>(
                    dtc::obs::metrics::counterValue("serve.cache.misses")),
                static_cast<unsigned long long>(
                    dtc::obs::metrics::counterValue("serve.cache.evictions")));
    replayAndCompare(pool, sched, outs, ops);

    const RungStats& nom = rungs[kNominalRung];
    if (!opt.trace) {
        const int64_t n_sent = static_cast<int64_t>(sched.size());
        out.add("setup_s", median(setup_ms) / 1e3, "s",
                static_cast<int64_t>(setup_ms.size()));
        // Mean work per execution in the nominal rung over the median
        // execution time: a plain sum would be dominated by the lazy
        // kernel prepare that misses pay inside Runtime::run.
        out.add("spmm_gflops",
                nom.runs && nom.runP50 > 0
                    ? nomFlops / static_cast<double>(nom.runs) /
                          nom.runP50 / 1e6
                    : 0.0,
                "GFLOP/s", nom.runs);
        out.add("call_ms_p50", nom.runP50, "ms", nom.runs);
        out.add("serve_ms_p50", quantile(nom.latency, 0.5), "ms", nom.ok);
        out.add("serve_ok_ratio",
                n_sent ? static_cast<double>(within) / n_sent : 0.0, "ratio",
                n_sent);
        out.add("serve_max_rps", max_rps, "req/s", n_sent);
        out.add("peak_rss_mb", peakRssMiB(), "MiB", 1);
        addTails(nom, false, out);
        std::printf("ladder: %.1f s\n", ladder_ms / 1e3);
        return;
    }

    // ---- traced run: per-layer metrics ------------------------------
    addServeLayerMetrics(*svc, ladder.depthMax(), out);
    addTails(nom, true, out);
    out.add("gen.lag_ms_p99", quantile(lag, 0.99), "ms",
            static_cast<int64_t>(lag.size()));
    RunTally tally;
    for (const Outcome& o : outs)
        if (o.status == Status::Ok)
            tally.add(o.report);
    svc.reset();

    dtc::ScopedNumThreads nt(kReplayThreads);
    std::vector<const CsrMatrix*> mats;
    for (const CsrMatrix& m : pool.mats)
        mats.push_back(&m);
    probeFormats(mats, out);

    // Reorder is off this workload's path: probe it on the largest
    // tenant.
    const CsrMatrix& big = *std::max_element(
        pool.mats.begin(), pool.mats.end(),
        [](const CsrMatrix& x, const CsrMatrix& y) {
            return x.nnz() < y.nnz();
        });
    dtc::TcaResult tca;
    const double tca_ms =
        timedSpan("reorder.tcaReorder", [&] { tca = dtc::tcaReorder(big); });
    addReorderMetrics(big, big.permuteRows(tca.permutation), tca, tca_ms, out);

    // Tuner, kernels and runtime probes on the head tenant at Tf32.
    const dtc::CostModel cm(dtc::ArchSpec::rtx4090());
    rt::RuntimeOptions ropt;
    ropt.precision = Precision::Tf32;
    std::vector<double> tune_ms;
    uint64_t evaluated = 0;
    std::shared_ptr<const dtc::TuneResult> head_tuned;
    for (int t = 0; t < kNumTenants; ++t) {
        const uint64_t e0 =
            dtc::obs::metrics::counterValue("tuner.candidates_evaluated");
        std::shared_ptr<const dtc::TuneResult> tr;
        tune_ms.push_back(timedSpan("tuner.Runtime::tune", [&] {
            tr = rt::Runtime::tune(pool.mats[t], ropt.tune, cm);
        }));
        evaluated =
            dtc::obs::metrics::counterValue("tuner.candidates_evaluated") - e0;
        if (t == 0)
            head_tuned = tr;
    }
    out.add("tuner.tune_ms", median(tune_ms), "ms", kNumTenants);
    out.add("tuner.candidates_evaluated", static_cast<double>(evaluated),
            "count", 1);

    const CsrMatrix& head = pool.mats[0];
    const int64_t n = kWidths[1];
    rt::Runtime runtime(head, head_tuned, ropt);
    DenseMatrix b(head.cols(), n), c(head.rows(), n);
    fillDense(b, opt.seed, 0xbead);
    rt::RunReport rep;
    runtime.run(b, c, &rep); // prepares
    std::vector<double> run_ms;
    for (int i = 0; i < 31; ++i)
        run_ms.push_back(timedSpan("runtime.Runtime::run",
                                   [&] { runtime.run(b, c, &rep); }));
    KernelProbeInput kin;
    kin.a = &head;
    kin.n = n;
    kin.precision = Precision::Tf32;
    kin.tuned = head_tuned.get();
    kin.picked = rep.kernel;
    kin.runMsP50 = median(run_ms);
    kin.seed = opt.seed;
    const KernelFigures fig = probeKernels(kin, out);

    // Engine counters over one batch of head-tenant runs on fresh B.
    const EngineCounters engine0 = EngineCounters::read();
    constexpr int kEngineCalls = 16;
    for (int i = 0; i < kEngineCalls; ++i) {
        fillDense(b, opt.seed, 0xe0000ull + static_cast<uint64_t>(i));
        runtime.run(b, c);
    }
    addEngineMetrics(engine0, EngineCounters::read(), kEngineCalls, out);
    addRunTallyMetrics(tally, out);
    probeHost(fig, out);

    // Tracing overhead: closed-loop head-tenant requests through a
    // service, spans off and on alternately.
    {
        sv::ServeOptions o;
        o.threads = kServeThreads;
        sv::SpmmService probe(o);
        const sv::MatrixHandle h = probe.attach(head);
        probe.run(h, b, Precision::Tf32);
        std::vector<double> on, off;
        for (int i = 0; i < 100; ++i) {
            spans::disable();
            off.push_back(timedSpan("untraced", [&] {
                probe.run(h, b, Precision::Tf32);
            }));
            spans::enable();
            on.push_back(timedSpan("serve.SpmmService::run", [&] {
                probe.run(h, b, Precision::Tf32);
            }));
        }
        out.add("trace.overhead_pct",
                100.0 * (median(on) - median(off)) / median(off), "%", 100);
    }
}

} // namespace perfbench
