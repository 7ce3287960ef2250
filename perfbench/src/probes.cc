#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/parallel.h"
#include "engine/simd/simd.h"
#include "formats/me_tcf.h"
#include "formats/sgt.h"
#include "kernels/kernel.h"
#include "obs/metrics.h"
#include "runtime/guard.h"
#include "spans.h"

namespace perfbench {
namespace {

using dtc::DenseMatrix;
using dtc::KernelKind;

std::optional<KernelKind>
kindByName(const std::string& name)
{
    for (KernelKind k : dtc::allKernelKinds())
        if (name == dtc::kernelKindName(k))
            return k;
    return std::nullopt;
}

std::unique_ptr<dtc::SpmmKernel>
instantiate(KernelKind kind, const std::optional<dtc::Precision>& p)
{
    return p ? dtc::makeKernelAt(kind, *p) : dtc::makeKernel(kind);
}

/**
 * Median compute() ms at @p threads: one untimed warm call, then
 * enough repetitions for ~0.6 s (3 to 15).  B is refilled from
 * @p seed before every call, as in the workloads' loops, so each call
 * pays the B-panel rounding a fresh operand costs.
 */
double
medianComputeMs(const dtc::SpmmKernel& k, DenseMatrix& b, DenseMatrix& c,
                int threads, uint64_t seed)
{
    dtc::ScopedNumThreads nt(threads);
    uint64_t stream = 0x9b0be;
    auto timedCall = [&] {
        fillDense(b, seed, ++stream);
        return timedSpan("kernels.compute", [&] { k.compute(b, c); });
    };
    const double warm = timedCall();
    const int reps =
        std::clamp(static_cast<int>(600.0 / std::max(warm, 1e-3)), 3, 15);
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i)
        ms.push_back(timedCall());
    return median(ms);
}

bool
isTensorCoreKind(KernelKind k)
{
    return k == KernelKind::Dtc || k == KernelKind::DtcBase ||
           k == KernelKind::DtcBalanced || k == KernelKind::Tcgnn;
}

/**
 * B bytes one compute() reads, computed (not measured): a
 * tensor-core kernel loads each TC block's non-padding B rows once,
 * a CUDA-core kernel one B row per nonzero.
 */
double
computedBBytes(const dtc::CsrMatrix& a, KernelKind k, int64_t n)
{
    int64_t rows_loaded = a.nnz();
    if (isTensorCoreKind(k)) {
        const dtc::MeTcfMatrix m = dtc::MeTcfMatrix::build(a);
        rows_loaded = 0;
        for (int32_t col : m.sparseAtoB())
            rows_loaded += col != dtc::MeTcfMatrix::kPadColumn;
    }
    return static_cast<double>(rows_loaded) * static_cast<double>(n) * 4.0;
}

// ---- host roofline --------------------------------------------------

#if defined(__x86_64__)
constexpr int kFmaChains = 12;

__attribute__((target("avx512f"))) double
fmaLoopAvx512(int64_t iters)
{
    __m512 acc[kFmaChains];
    for (int k = 0; k < kFmaChains; ++k)
        acc[k] = _mm512_set1_ps(1.0f + 0.001f * static_cast<float>(k));
    const __m512 m = _mm512_set1_ps(0.9999999f);
    const __m512 a = _mm512_set1_ps(1e-7f);
    for (int64_t i = 0; i < iters; ++i)
        for (int k = 0; k < kFmaChains; ++k)
            acc[k] = _mm512_fmadd_ps(acc[k], m, a);
    __m512 s = acc[0];
    for (int k = 1; k < kFmaChains; ++k)
        s = _mm512_add_ps(s, acc[k]);
    float out[16];
    _mm512_storeu_ps(out, s);
    double t = 0;
    for (float x : out)
        t += x;
    return t;
}

__attribute__((target("avx2,fma"))) double
fmaLoopAvx2(int64_t iters)
{
    __m256 acc[kFmaChains];
    for (int k = 0; k < kFmaChains; ++k)
        acc[k] = _mm256_set1_ps(1.0f + 0.001f * static_cast<float>(k));
    const __m256 m = _mm256_set1_ps(0.9999999f);
    const __m256 a = _mm256_set1_ps(1e-7f);
    for (int64_t i = 0; i < iters; ++i)
        for (int k = 0; k < kFmaChains; ++k)
            acc[k] = _mm256_fmadd_ps(acc[k], m, a);
    float out[8];
    __m256 s = acc[0];
    for (int k = 1; k < kFmaChains; ++k)
        s = _mm256_add_ps(s, acc[k]);
    _mm256_storeu_ps(out, s);
    double t = 0;
    for (float x : out)
        t += x;
    return t;
}
#endif

double
fmaLoopScalar(int64_t iters)
{
    float acc[8];
    for (int k = 0; k < 8; ++k)
        acc[k] = 1.0f + 0.001f * static_cast<float>(k);
    for (int64_t i = 0; i < iters; ++i)
        for (float& x : acc)
            x = x * 0.9999999f + 1e-7f;
    double t = 0;
    for (float x : acc)
        t += x;
    return t;
}

/** FMA GFLOP/s of @p isa on kProbeThreadsHi threads (best of 3). */
double
fmaPeakGflops(dtc::engine::simd::Isa isa)
{
    using dtc::engine::simd::Isa;
    int lanes = 1, chains = 8;
    double (*loop)(int64_t) = fmaLoopScalar;
#if defined(__x86_64__)
    if (isa == Isa::Avx512 && __builtin_cpu_supports("avx512f")) {
        lanes = 16;
        chains = kFmaChains;
        loop = fmaLoopAvx512;
    } else if (isa >= Isa::Avx2 && __builtin_cpu_supports("fma")) {
        lanes = 8;
        chains = kFmaChains;
        loop = fmaLoopAvx2;
    }
#else
    (void)isa;
#endif
    const int64_t iters = lanes > 1 ? 30'000'000 : 40'000'000;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> sink(kProbeThreadsHi);
        const double t0 = nowMs();
        std::vector<std::thread> ts;
        for (int t = 0; t < kProbeThreadsHi; ++t)
            ts.emplace_back([&, t] { sink[t] = loop(iters); });
        for (std::thread& t : ts)
            t.join();
        const double s = (nowMs() - t0) / 1e3;
        const double flops = 2.0 * lanes * chains *
                             static_cast<double>(iters) * kProbeThreadsHi;
        if (sink[0] != 0.0) // keep the loops observable
            best = std::max(best, flops / s / 1e9);
    }
    return best;
}

struct Triad
{
    double llcMiB = 0.0;
    double arraysMiB = 0.0; ///< All three arrays together.
    double gbps = 0.0;
};

/** STREAM-style triad a = b + s*c, best of 4 passes. */
Triad
triadProbe()
{
    Triad out;
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = 32L << 20; // unknown: assume a 32 MiB LLC
    out.llcMiB = static_cast<double>(llc) / (1 << 20);
    // Arrays together hold >= 4x the LLC, so no pass can hit in it.
    const size_t per = static_cast<size_t>(4 * llc / 3) / sizeof(double) + 1;
    out.arraysMiB =
        3.0 * static_cast<double>(per * sizeof(double)) / (1 << 20);
    std::unique_ptr<double[]> a(new double[per]), b(new double[per]),
        c(new double[per]);
    const size_t step = (per + kProbeThreadsHi - 1) / kProbeThreadsHi;
    auto onThreads = [&](auto&& body) {
        std::vector<std::thread> ts;
        for (int t = 0; t < kProbeThreadsHi; ++t) {
            const size_t lo = std::min(per, t * step);
            const size_t hi = std::min(per, lo + step);
            ts.emplace_back([&body, lo, hi] { body(lo, hi); });
        }
        for (std::thread& t : ts)
            t.join();
    };
    onThreads([&](size_t lo, size_t hi) { // first touch on the workers
        for (size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    double best_s = 1e30;
    for (int rep = 0; rep < 4; ++rep) {
        const double t0 = nowMs();
        onThreads([&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                a[i] = b[i] + 3.0 * c[i];
        });
        best_s = std::min(best_s, (nowMs() - t0) / 1e3);
    }
    out.gbps = 3.0 * static_cast<double>(per * sizeof(double)) / best_s / 1e9;
    return out;
}

} // namespace

EngineCounters
EngineCounters::read()
{
    using dtc::obs::metrics::counterValue;
    EngineCounters c;
    c.vectorElems = counterValue("engine.simd.vector_elems");
    c.tailElems = counterValue("engine.simd.tail_elems");
    c.roundOps = counterValue("engine.b_round_ops");
    c.panelHits = counterValue("engine.panel_hits");
    c.panelMisses = counterValue("engine.panel_misses");
    return c;
}

void
addEngineMetrics(const EngineCounters& before, const EngineCounters& after,
                 int64_t calls, Report& out)
{
    auto delta = [](uint64_t hi, uint64_t lo) {
        return static_cast<double>(hi - lo);
    };
    const double vec = delta(after.vectorElems, before.vectorElems);
    const double tail = delta(after.tailElems, before.tailElems);
    const double hits = delta(after.panelHits, before.panelHits);
    const double miss = delta(after.panelMisses, before.panelMisses);
    out.add("engine.vector_share", vec + tail > 0 ? vec / (vec + tail) : 0.0,
            "ratio", calls);
    out.add("engine.b_round_ops",
            calls ? delta(after.roundOps, before.roundOps) /
                        static_cast<double>(calls)
                  : 0.0,
            "count", calls);
    out.add("engine.panel_hit_ratio",
            hits + miss > 0 ? hits / (hits + miss) : 0.0, "ratio",
            static_cast<int64_t>(hits + miss));
}

void
RunTally::add(const dtc::runtime::RunReport& r)
{
    ++reports;
    attempts += r.attempts;
    retries += r.retries;
    reexecs += r.reexecs;
    fallbacks += r.usedReferenceFallback;
    firstTryOk += r.attempts == 1 && !r.usedReferenceFallback;
}

void
addRunTallyMetrics(const RunTally& t, Report& out)
{
    out.add("runtime.retries", static_cast<double>(t.retries), "count",
            t.reports);
    out.add("runtime.reexecs", static_cast<double>(t.reexecs), "count",
            t.reports);
    out.add("runtime.reference_fallbacks", static_cast<double>(t.fallbacks),
            "count", t.reports);
    out.add("runtime.useful_ratio",
            t.attempts ? static_cast<double>(t.firstTryOk) /
                             static_cast<double>(t.attempts)
                       : 0.0,
            "ratio", t.attempts);
}

void
addReorderMetrics(const dtc::CsrMatrix& before, const dtc::CsrMatrix& after,
                  const dtc::TcaResult& r, double ms, Report& out)
{
    const double gain = dtc::sgtCondense(after).meanNnzTc /
                        dtc::sgtCondense(before).meanNnzTc;
    out.add("reorder.tca_ms", ms, "ms", 1);
    out.add("reorder.clusters", static_cast<double>(r.numClusters), "count",
            1);
    out.add("reorder.candidate_pairs",
            static_cast<double>(r.candidatePairsH1 + r.candidatePairsH2),
            "count", 1);
    out.add("reorder.tc_density_gain", gain, "ratio", 1);
}

void
probeFormats(const std::vector<const dtc::CsrMatrix*>& mats, Report& out)
{
    std::vector<double> sgt_ms, build_ms, blocks, per_block;
    for (const dtc::CsrMatrix* m : mats) {
        dtc::SgtResult s;
        sgt_ms.push_back(timedSpan("formats.sgtCondense",
                                   [&] { s = dtc::sgtCondense(*m); }));
        build_ms.push_back(timedSpan("formats.MeTcfMatrix::build", [&] {
            (void)dtc::MeTcfMatrix::build(*m);
        }));
        blocks.push_back(static_cast<double>(s.numTcBlocks));
        per_block.push_back(s.meanNnzTc);
    }
    const int64_t k = static_cast<int64_t>(mats.size());
    out.add("formats.sgt_condense_ms", median(sgt_ms), "ms", k);
    out.add("formats.metcf_build_ms", median(build_ms), "ms", k);
    out.add("formats.tc_blocks", median(blocks), "count", k);
    out.add("formats.nnz_per_tc_block", median(per_block), "ratio", k);
}

KernelFigures
probeKernels(const KernelProbeInput& in, Report& out)
{
    const dtc::CsrMatrix& a = *in.a;
    const double flops = 2.0 * static_cast<double>(a.nnz()) *
                         static_cast<double>(in.n);
    DenseMatrix b(a.cols(), in.n);
    fillDense(b, in.seed, 0x9b0be);
    DenseMatrix c(a.rows(), in.n);
    KernelFigures fig;

    const std::optional<KernelKind> pick = kindByName(in.picked);
    std::unique_ptr<dtc::SpmmKernel> k;
    double prepare_ms = 0.0;
    if (pick) {
        k = instantiate(*pick, in.precision);
        if (k) {
            bool ok = false;
            prepare_ms = timedSpan("kernels.prepare",
                                   [&] { ok = k->prepare(a).ok(); });
            if (!ok)
                k.reset();
        }
    }
    double compute_ms = 0.0, lo_ms = 0.0, guard_ms = 0.0;
    double b_bytes = static_cast<double>(a.nnz()) * in.n * 4.0;
    if (k) {
        compute_ms = medianComputeMs(*k, b, c, kProbeThreadsHi, in.seed);
        lo_ms = medianComputeMs(*k, b, c, kProbeThreadsLo, in.seed);
        const dtc::Precision p =
            in.precision.value_or(dtc::kernelTraits(*pick).nativePrecision);
        dtc::ScopedNumThreads nt(kProbeThreadsHi);
        std::vector<double> g;
        for (int i = 0; i < 7; ++i)
            g.push_back(timedSpan("runtime.guard.checkSampledRows", [&] {
                dtc::runtime::guard::checkSampledRows(a, b, c, p);
            }));
        guard_ms = median(g);
        b_bytes = computedBBytes(a, *pick, in.n);
    }

    // Selection regret: every supported candidate timed directly, the
    // pick among them.
    double best_ms = 0.0, pick_ms = 0.0;
    int64_t timed = 0;
    if (in.tuned) {
        for (const dtc::TuneEntry& e : in.tuned->supportedEntries()) {
            std::unique_ptr<dtc::SpmmKernel> ck =
                instantiate(e.kind, in.precision);
            if (!ck || !ck->prepare(a).ok())
                continue;
            const double ms =
                medianComputeMs(*ck, b, c, kProbeThreadsHi, in.seed);
            std::printf("probe candidate %-20s compute %.3f ms\n",
                        e.name.c_str(), ms);
            best_ms = timed == 0 ? ms : std::min(best_ms, ms);
            if (e.name == in.picked)
                pick_ms = ms;
            ++timed;
        }
    }

    fig.gflops = compute_ms > 0 ? flops / compute_ms / 1e6 : 0.0;
    fig.flopsPerByte = flops / b_bytes;
    out.add("kernels.prepare_ms", prepare_ms, "ms", 1);
    out.add("kernels.compute_ms_p50", compute_ms, "ms", 3);
    out.add("kernels.gflops", fig.gflops, "GFLOP/s", 3);
    out.add("kernels.b_bytes", b_bytes, "B", 1);
    out.add("kernels.flops_per_byte", fig.flopsPerByte, "FLOP/B", 1);
    out.add("kernels.gbps", compute_ms > 0 ? b_bytes / compute_ms / 1e6 : 0.0,
            "GB/s", 3);
    out.add("tuner.regret",
            best_ms > 0 ? pick_ms / best_ms : 0.0,
            "ratio", timed);
    out.add("parallel.compute_ms_1t", lo_ms, "ms", 3);
    out.add("parallel.compute_ms_4t", compute_ms, "ms", 3);
    out.add("parallel.speedup", compute_ms > 0 ? lo_ms / compute_ms : 0.0,
            "x", 3);
    out.add("runtime.guard_ms", guard_ms, "ms", 7);
    out.add("runtime.guard_share",
            in.runMsP50 > 0 ? guard_ms / in.runMsP50 : 0.0, "ratio", 7);
    out.add("runtime.run_overhead_ms", in.runMsP50 - compute_ms - guard_ms,
            "ms", 7);
    return fig;
}

void
probeHost(const KernelFigures& kernel, Report& out)
{
    Triad t;
    timedSpan("host.triad", [&] { t = triadProbe(); });
    const dtc::engine::simd::Isa isa = dtc::engine::simd::activeIsa();
    double fma = 0.0;
    timedSpan("host.fma", [&] { fma = fmaPeakGflops(isa); });
    std::printf("probe host: LLC %.0f MiB, triad arrays %.0f MiB, "
                "%d threads, FMA isa %s\n",
                t.llcMiB, t.arraysMiB, kProbeThreadsHi,
                dtc::engine::simd::isaName(isa));
    const double attainable =
        std::min(fma, kernel.flopsPerByte * t.gbps);
    out.add("host.llc_mib", t.llcMiB, "MiB", 1);
    out.add("host.triad_mib", t.arraysMiB, "MiB", 1);
    out.add("host.triad_gbps", t.gbps, "GB/s", 4);
    out.add("host.fma_gflops", fma, "GFLOP/s", 3);
    out.add("kernels.roofline_pct",
            attainable > 0 ? 100.0 * kernel.gflops / attainable : 0.0, "%",
            1);
}

} // namespace perfbench
