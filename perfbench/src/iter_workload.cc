/**
 * @file
 * iter_long_rows and iter_short_rows: one caller, one Runtime, a
 * closed loop of SpMM calls whose B changes every call (as GCN
 * features do between layers and epochs).
 */
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/table1.h"
#include "gpusim/cost_model.h"
#include "naive_ref.h"
#include "obs/metrics.h"
#include "probes.h"
#include "reorder/tca.h"
#include "runtime/runtime.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using dtc::CsrMatrix;
using dtc::DenseMatrix;
namespace rt = dtc::runtime;

struct IterSpec
{
    const char* name;
    const char* abbr;  ///< Table-1 analog recipe.
    int64_t n;         ///< Dense width.
    bool reorder;      ///< TCA-reorder before tuning.
    double limitMs;    ///< Latency limit of serve_ok_ratio.
    int setupReps;     ///< Set-ups per run; setup_s is their median.
    /**
     * Timed calls per run at least: 100 gives call_ms_p90 ten samples
     * above it, 1000 gives serve_ms_p99 the same.
     */
    int64_t minCalls;
};

constexpr IterSpec kSpecs[] = {
    {"iter_long_rows", "protein", 128, true, 2000.0, 3, 100},
    {"iter_short_rows", "YH", 32, false, 100.0, 5, 1000},
};

/** Seeded mid-loop checks, besides the first and the last call. */
constexpr int kMidChecks = 2;
/** Untimed calls before the loop, and their B stream. */
constexpr int64_t kWarmupCalls = 10;
constexpr uint64_t kWarmupStream = 1ull << 40;
/** Threads of the caller's parallelFor (the caller is one of them). */
constexpr int kThreads = 4;

const IterSpec&
specFor(const std::string& name)
{
    for (const IterSpec& s : kSpecs)
        if (name == s.name)
            return s;
    throw std::runtime_error("unknown workload " + name);
}

CsrMatrix
makeInput(const IterSpec& spec, uint64_t seed)
{
    dtc::Table1Entry e = dtc::table1ByAbbr(spec.abbr);
    e.seed ^= mix64(seed);
    return e.make();
}

/** One set-up: CSR in hand -> first guard-verified C. */
struct Setup
{
    CsrMatrix a; ///< The matrix the runtime serves (reordered or not).
    std::unique_ptr<rt::Runtime> runtime;
    rt::RunReport first;
    dtc::TcaResult tca;
    double totalMs = 0, reorderMs = 0, tuneMs = 0;
    uint64_t candidatesEvaluated = 0;
};

Setup
setUp(const IterSpec& spec, const CsrMatrix& input, const DenseMatrix& b,
      DenseMatrix& c, const dtc::CostModel& cm)
{
    Setup s;
    Span total("setup");
    if (spec.reorder) {
        s.reorderMs = timedSpan("reorder.tcaReorder",
                                [&] { s.tca = dtc::tcaReorder(input); });
        s.a = input.permuteRows(s.tca.permutation);
    } else {
        s.a = input;
    }
    rt::RuntimeOptions ropt;
    ropt.tune.denseWidth = spec.n;
    std::shared_ptr<const dtc::TuneResult> tuned;
    const uint64_t ev0 =
        dtc::obs::metrics::counterValue("tuner.candidates_evaluated");
    s.tuneMs = timedSpan("tuner.Runtime::tune", [&] {
        tuned = rt::Runtime::tune(s.a, ropt.tune, cm);
    });
    s.candidatesEvaluated =
        dtc::obs::metrics::counterValue("tuner.candidates_evaluated") - ev0;
    s.runtime = std::make_unique<rt::Runtime>(s.a, tuned, ropt);
    timedSpan("runtime.Runtime::run", [&] { s.runtime->run(b, c, &s.first); });
    s.totalMs = total.stop();
    return s;
}

/** The timed closed loop and what it observed. */
struct LoopResult
{
    std::vector<double> callMs;   ///< Every call, failed ones too.
    std::vector<double> gapMs;    ///< Caller time between calls.
    double okMs = 0;              ///< Summed latency of successful calls.
    int64_t ok = 0, withinLimit = 0;
    RunTally tally;
    std::string kernel;           ///< Kernel of the last successful call.
};

void
verify(const CsrMatrix& a, const DenseMatrix& b, const DenseMatrix& c,
       const rt::RunReport& rep, int64_t call, OpCounts& ops)
{
    const std::string bad = checkSpmm(a, b, c, rep.kernel, rep.precision);
    ++ops.checked;
    if (!bad.empty()) {
        ++ops.wrong;
        std::printf("CHECK FAILED call %lld (%s): %s\n",
                    static_cast<long long>(call), rep.kernel.c_str(),
                    bad.c_str());
    }
}

/**
 * Untimed calls before the loop: allocator pools and page mappings
 * settle (the first calls of a loop run ~2x slower).  Counted as
 * attempts, not timed.
 */
void
warmUp(const Options& opt, Setup& s, DenseMatrix& b, DenseMatrix& c,
       OpCounts& ops)
{
    for (int64_t w = 0; w < kWarmupCalls; ++w) {
        fillDense(b, opt.seed, kWarmupStream + static_cast<uint64_t>(w));
        ++ops.attempted;
        try {
            s.runtime->run(b, c);
        } catch (const std::exception& e) {
            ++ops.failed;
            std::printf("warm-up call failed: %s\n", e.what());
        }
    }
}

LoopResult
timedLoop(const IterSpec& spec, const Options& opt, Setup& s,
          DenseMatrix& b, DenseMatrix& c, OpCounts& ops)
{
    rt::RunReport rep;
    // Checked calls: the first, kMidChecks seeded ones and the last.
    // C is copied aside and judged after the loop, so that no check
    // disturbs the calls after it; B is regenerated from its seed.
    std::set<int64_t> picks = {0};
    dtc::Rng rng(mix64(opt.seed ^ 0xc4ec));
    while (static_cast<int>(picks.size()) < 1 + kMidChecks)
        picks.insert(rng.nextInt(1, spec.minCalls - 1));
    struct Kept
    {
        int64_t call;
        DenseMatrix c;
        rt::RunReport rep;
        bool ok = false;
    };
    std::vector<Kept> kept;
    for (int64_t call : picks)
        kept.push_back({call, DenseMatrix(c.rows(), c.cols()), {}, false});

    LoopResult res;
    const double budget = opt.seconds * 1e3;
    double busy = 0; // caller time: B generation plus calls
    for (int64_t call = 0;; ++call) {
        const double g0 = nowMs();
        fillDense(b, opt.seed, static_cast<uint64_t>(call) + 1);
        const double gap = nowMs() - g0;
        res.gapMs.push_back(gap);

        bool ok = true;
        Span span("runtime.Runtime::run", call);
        try {
            s.runtime->run(b, c, &rep);
        } catch (const std::exception& e) {
            ok = false;
            std::printf("call %lld failed: %s\n",
                        static_cast<long long>(call), e.what());
        }
        const double ms = span.stop();
        ++ops.attempted;
        res.callMs.push_back(ms);
        busy += gap + ms;
        if (ok) {
            ++res.ok;
            res.okMs += ms;
            res.withinLimit += ms <= spec.limitMs;
            res.tally.add(rep);
            res.kernel = rep.kernel;
            for (Kept& k : kept)
                if (k.call == call) {
                    std::copy(c.data(), c.data() + c.size(), k.c.data());
                    k.rep = rep;
                    k.ok = true;
                }
        } else {
            ++ops.failed;
        }
        if ((busy >= budget && call + 1 >= spec.minCalls) ||
            busy >= 3 * budget) {
            if (ok)
                verify(s.a, b, c, rep, call, ops);
            break;
        }
    }
    for (const Kept& k : kept) {
        if (!k.ok)
            continue;
        fillDense(b, opt.seed, static_cast<uint64_t>(k.call) + 1);
        verify(s.a, b, k.c, k.rep, k.call, ops);
    }
    return res;
}

/**
 * The tail latencies: printed by every run, in the result of the
 * traced run only — on a shared host their run-to-run spread is wider
 * than any bound the end-to-end gate allows (see README.md).
 */
void
addTails(const LoopResult& r, bool in_result, Report& out)
{
    const int64_t calls = static_cast<int64_t>(r.callMs.size());
    out.add("call_ms_p90", quantile(r.callMs, 0.9), "ms", calls, in_result);
    // One closed-loop caller: each call is sent the moment the caller
    // is ready, so request latency is the call latency.
    out.add("serve_ms_p99", quantile(r.callMs, 0.99), "ms", calls,
            in_result);
}

void
addEndToEnd(const IterSpec& spec, const CsrMatrix& a,
            const std::vector<double>& setup_ms, const LoopResult& r,
            Report& out)
{
    const int64_t calls = static_cast<int64_t>(r.callMs.size());
    const double flops = 2.0 * static_cast<double>(a.nnz()) *
                         static_cast<double>(spec.n);
    out.add("setup_s", median(setup_ms) / 1e3, "s",
            static_cast<int64_t>(setup_ms.size()));
    out.add("spmm_gflops",
            r.okMs > 0 ? flops * static_cast<double>(r.ok) / r.okMs / 1e6
                       : 0.0,
            "GFLOP/s", r.ok);
    out.add("call_ms_p50", quantile(r.callMs, 0.5), "ms", calls);
    out.add("serve_ms_p50", quantile(r.callMs, 0.5), "ms", calls);
    out.add("serve_ok_ratio",
            calls ? static_cast<double>(r.withinLimit) / calls : 0.0,
            "ratio", calls);
    out.add("serve_max_rps",
            r.okMs > 0 ? static_cast<double>(r.ok) * 1e3 / r.okMs : 0.0,
            "req/s", r.ok);
    out.add("peak_rss_mb", peakRssMiB(), "MiB", 1);
    addTails(r, false, out);
}

/** Per-layer metrics of the traced run; probes run after the loop. */
void
addPerLayer(const IterSpec& spec, const Options& opt, const CsrMatrix& input,
            Setup& s, const LoopResult& r, const EngineCounters& engine0,
            const EngineCounters& engine1, Report& out)
{
    const int64_t calls = static_cast<int64_t>(r.callMs.size());
    // reorder: on the request path for iter_long_rows, an off-path
    // probe on the same input otherwise.
    if (spec.reorder) {
        addReorderMetrics(input, s.a, s.tca, s.reorderMs, out);
    } else {
        dtc::TcaResult tca;
        const double ms = timedSpan("reorder.tcaReorder",
                                    [&] { tca = dtc::tcaReorder(input); });
        addReorderMetrics(input, input.permuteRows(tca.permutation), tca, ms,
                          out);
    }
    probeFormats({&s.a}, out);
    out.add("tuner.tune_ms", s.tuneMs, "ms", 1);
    out.add("tuner.candidates_evaluated",
            static_cast<double>(s.candidatesEvaluated), "count", 1);

    KernelProbeInput kin;
    kin.a = &s.a;
    kin.n = spec.n;
    kin.tuned = &s.runtime->tuning();
    kin.picked = r.kernel;
    kin.runMsP50 = quantile(r.callMs, 0.5);
    kin.seed = opt.seed;
    const KernelFigures fig = probeKernels(kin, out);

    addEngineMetrics(engine0, engine1, calls, out);
    addRunTallyMetrics(r.tally, out);

    // The serve layer is off this workload's path: probe it with a
    // burst of the same matrix and width.
    probeServeLayer(s.a, spec.n, dtc::Precision::Tf32, 8, opt.seed, out);
    out.add("gen.lag_ms_p99", quantile(r.gapMs, 0.99), "ms",
            static_cast<int64_t>(r.gapMs.size()));
    addTails(r, true, out);
    probeHost(fig, out);
}

/**
 * Traced vs untraced Runtime::run latency, alternating calls on one
 * B; returns the median slowdown in percent.
 */
double
traceOverheadPct(Setup& s, DenseMatrix& b, DenseMatrix& c, double run_ms)
{
    const int pairs =
        std::clamp(static_cast<int>(1500.0 / std::max(run_ms, 0.01)), 5, 200);
    std::vector<double> on, off;
    for (int i = 0; i < pairs; ++i) {
        spans::disable();
        off.push_back(timedSpan("untraced", [&] { s.runtime->run(b, c); }));
        spans::enable();
        on.push_back(timedSpan("runtime.Runtime::run",
                               [&] { s.runtime->run(b, c); }));
    }
    return 100.0 * (median(on) - median(off)) / median(off);
}

} // namespace

bool
isIterWorkload(const std::string& name)
{
    for (const IterSpec& s : kSpecs)
        if (name == s.name)
            return true;
    return false;
}

void
runIterWorkload(const Options& opt, Report& out, OpCounts& ops)
{
    const IterSpec& spec = specFor(opt.workload);
    dtc::ScopedNumThreads threads(kThreads);
    const dtc::CostModel cm(dtc::ArchSpec::rtx4090());

    const CsrMatrix input = makeInput(spec, opt.seed); // not timed
    std::printf("workload %s: %s analog, %lld rows, %lld nnz, N=%lld, "
                "reorder=%d, %d threads\n",
                spec.name, spec.abbr, static_cast<long long>(input.rows()),
                static_cast<long long>(input.nnz()),
                static_cast<long long>(spec.n), spec.reorder, kThreads);
    DenseMatrix b(input.cols(), spec.n);
    DenseMatrix c(input.rows(), spec.n);
    fillDense(b, opt.seed, 0);

    // Set up several times; keep the last set-up for the loop.  A
    // traced run sets up once: its figures come from the probes.
    const int reps = opt.trace ? 1 : spec.setupReps;
    std::vector<double> setup_ms;
    Setup s;
    for (int i = 0; i < reps; ++i) {
        s = Setup{}; // free the previous set-up before building the next
        s = setUp(spec, input, b, c, cm);
        setup_ms.push_back(s.totalMs);
        ++ops.attempted;
        // Hand the previous set-ups' freed pages back, so peak RSS
        // follows live memory rather than allocator retention.
        malloc_trim(0);
    }
    verify(s.a, b, c, s.first, -1, ops);
    std::printf("setup: %.1f ms (reorder %.1f, tune %.1f), kernel %s\n",
                s.totalMs, s.reorderMs, s.tuneMs, s.first.kernel.c_str());

    warmUp(opt, s, b, c, ops);
    const EngineCounters engine0 = EngineCounters::read();
    const LoopResult r = timedLoop(spec, opt, s, b, c, ops);
    const EngineCounters engine1 = EngineCounters::read();
    std::printf("loop: %zu calls, %lld ok, kernel %s\n", r.callMs.size(),
                static_cast<long long>(r.ok), r.kernel.c_str());

    if (!opt.trace) {
        addEndToEnd(spec, s.a, setup_ms, r, out);
        return;
    }
    const double overhead =
        traceOverheadPct(s, b, c, quantile(r.callMs, 0.5));
    addPerLayer(spec, opt, input, s, r, engine0, engine1, out);
    out.add("trace.overhead_pct", overhead, "%", 1);
}

} // namespace perfbench
