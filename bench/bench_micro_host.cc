/**
 * @file
 * Host-side microbenchmarks (google-benchmark): throughput of the
 * preprocessing stages a deployment actually runs on the CPU/GPU —
 * SGT condensation, ME-TCF/TCF conversion, MinHash signatures, the
 * L2 model, and the thread-block scheduler.  These are real
 * wall-clock numbers (unlike the simulated kernel results).
 */
#include <benchmark/benchmark.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/aligned.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/simd/simd.h"
#include "gpusim/cost_model.h"
#include "kernels/kernel.h"
#include "kernels/reference.h"
#include "matrix/dense.h"
#include "datasets/generators.h"
#include "formats/me_tcf.h"
#include "formats/sgt.h"
#include "formats/tcf.h"
#include "gpusim/l2cache.h"
#include "gpusim/scheduler.h"
#include "obs/metrics.h"
#include "reorder/minhash.h"
#include "reorder/tca.h"
#include "runtime/guard.h"
#include "runtime/runtime.h"
#include "selector/selector.h"
#include "tuner/tuner.h"

namespace dtc {
namespace {

CsrMatrix&
benchMatrix()
{
    static CsrMatrix m = [] {
        Rng rng(1);
        return genCommunity(16384, 32, 24.0, 0.85, rng);
    }();
    return m;
}

void
BM_SgtCondense(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    for (auto _ : state) {
        SgtResult r = sgtCondense(m);
        benchmark::DoNotOptimize(r.numTcBlocks);
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SgtCondense);

void
BM_MeTcfBuild(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    for (auto _ : state) {
        MeTcfMatrix t = MeTcfMatrix::build(m);
        benchmark::DoNotOptimize(t.numTcBlocks());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_MeTcfBuild);

void
BM_TcfBuild(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    for (auto _ : state) {
        TcfMatrix t = TcfMatrix::build(m);
        benchmark::DoNotOptimize(t.numTcBlocks());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_TcfBuild);

void
BM_MinhashSignatures(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    const int hashes = static_cast<int>(state.range(0));
    MinHasher hasher(hashes, 42);
    std::vector<uint32_t> sig(static_cast<size_t>(hashes));
    for (auto _ : state) {
        for (int64_t r = 0; r < m.rows(); r += 16) {
            hasher.signature(
                m.colIdx().data() + m.rowPtr()[r],
                m.colIdx().data() + m.rowPtr()[r + 1], sig.data());
        }
        benchmark::DoNotOptimize(sig[0]);
    }
}
BENCHMARK(BM_MinhashSignatures)->Arg(16)->Arg(32);

void
BM_L2CacheAccess(benchmark::State& state)
{
    L2Cache cache(48ll << 20, 16, 512);
    Rng rng(7);
    std::vector<uint64_t> lines(1 << 16);
    for (auto& l : lines)
        l = rng.nextZipf(1 << 18, 1.1);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.accessLine(lines[i++ & (lines.size() - 1)]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2CacheAccess);

void
BM_Scheduler(benchmark::State& state)
{
    Rng rng(9);
    std::vector<double> tbs(static_cast<size_t>(state.range(0)));
    for (auto& t : tbs)
        t = 100.0 + static_cast<double>(rng.nextBounded(1000));
    for (auto _ : state) {
        ScheduleResult r = scheduleThreadBlocks(tbs, 128, 6);
        benchmark::DoNotOptimize(r.makespanCycles);
    }
    state.SetItemsProcessed(state.iterations() * tbs.size());
}
BENCHMARK(BM_Scheduler)->Arg(1024)->Arg(65536);

// ---- threads=1 vs threads=N sweeps of the parallelized hot paths.
// The matrix has >= 100k nnz; results are bitwise identical across
// thread counts (see tests/test_parallel_equivalence.cc), so these
// rows isolate the wall-clock effect of the parallel runtime.

void
BM_SgtCondenseThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        SgtResult r = sgtCondense(m);
        benchmark::DoNotOptimize(r.numTcBlocks);
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SgtCondenseThreads)->Arg(1)->Arg(8);

void
BM_MeTcfBuildThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        MeTcfMatrix t = MeTcfMatrix::build(m);
        benchmark::DoNotOptimize(t.numTcBlocks());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_MeTcfBuildThreads)->Arg(1)->Arg(8);

void
BM_ReferenceSpmmThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    static DenseMatrix b = [&] {
        Rng rng(3);
        DenseMatrix d(m.cols(), 32);
        d.fillRandom(rng);
        return d;
    }();
    DenseMatrix c(m.rows(), 32);
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        referenceSpmm(m, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * 32);
}
BENCHMARK(BM_ReferenceSpmmThreads)->Arg(1)->Arg(8);

void
BM_MinhashSignatureBatchThreads(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    MinHasher hasher(32, 42);
    std::vector<uint32_t> sigs(static_cast<size_t>(m.rows()) * 32);
    auto row_set = [&](int64_t r) {
        return std::pair<const int32_t*, const int32_t*>(
            m.colIdx().data() + m.rowPtr()[r],
            m.colIdx().data() + m.rowPtr()[r + 1]);
    };
    ScopedNumThreads threads(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        hasher.signatureBatch(m.rows(), row_set, sigs.data());
        benchmark::DoNotOptimize(sigs[0]);
    }
    state.SetItemsProcessed(state.iterations() * m.rows());
}
BENCHMARK(BM_MinhashSignatureBatchThreads)->Arg(1)->Arg(8);

void
BM_TraceScopeDisarmed(benchmark::State& state)
{
    // The cost a DTC_TRACE_SCOPE adds to a hot path while tracing is
    // off: one relaxed atomic load and a predicted branch per
    // construction — no clock read, no allocation.  This row backs
    // the "near-zero overhead when disarmed" claim in README, the
    // same way BM_FaultPointDisarmed does for fault points.
    obs::trace::disable();
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            DTC_TRACE_SCOPE("bench.disarmed");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TraceScopeDisarmed);

void
BM_FaultPointDisarmed(benchmark::State& state)
{
    // The cost a DTC_FAULT_POINT adds to a hot path while no fault is
    // armed: one relaxed atomic load and a predicted branch.  This
    // row backs the "zero-cost when disarmed" claim in README.
    fault::disarmAll();
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            DTC_FAULT_POINT("bench.disarmed");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FaultPointDisarmed);

// ---- Scalar vs detected-ISA sweeps of the vector micro-kernel
// backend (src/engine/simd/): Arg(1) picks the portable Isa::Scalar
// backend (0) or the host's detected ISA (1).  Outputs are bitwise
// identical (tests/test_engine_equivalence.cc), so these rows isolate
// the vectorization win.

void
BM_DtcComputeSimd(benchmark::State& state)
{
    const CsrMatrix& m = benchMatrix();
    static std::unique_ptr<SpmmKernel> kernel = [&] {
        auto k = makeKernel(KernelKind::Dtc);
        k->prepare(m);
        return k;
    }();
    const int64_t n = state.range(0);
    engine::simd::ScopedSimdMode simd(
        state.range(1) != 0 ? engine::simd::detectedIsa()
                            : engine::simd::Isa::Scalar);
    Rng rng(3);
    DenseMatrix b(m.cols(), n);
    b.fillRandom(rng);
    DenseMatrix c(m.rows(), n);
    for (auto _ : state) {
        kernel->compute(b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * n);
}
BENCHMARK(BM_DtcComputeSimd)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void
BM_RoundPanelSimd(benchmark::State& state)
{
    const int64_t n = state.range(0);
    const engine::simd::Kernels& K = engine::simd::kernelsFor(
        state.range(1) != 0 ? engine::simd::detectedIsa()
                            : engine::simd::Isa::Scalar);
    Rng rng(13);
    AlignedVector<float> in(static_cast<size_t>(n));
    AlignedVector<float> out(static_cast<size_t>(n));
    for (auto& x : in)
        x = rng.nextFloat(-1.0f, 1.0f);
    for (auto _ : state) {
        K.roundPanel(out.data(), in.data(), n, Precision::Tf32);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RoundPanelSimd)
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1});

void
BM_RuntimeGuardOverhead(benchmark::State& state)
{
    // The online-guard tax on Runtime::run.  Arg(0): guard disabled —
    // the per-run probe is one relaxed atomic load (guard::enabled),
    // so this row should track the bare kernel row.  Arg(1): the
    // default 1% row sample, whose cost is the quantity README's
    // "Resilient runtime" section cites.
    static CsrMatrix m = [] {
        Rng rng(5);
        return genCommunity(4096, 16, 16.0, 0.85, rng);
    }();
    static const CostModel cm(ArchSpec::rtx4090());
    runtime::RuntimeOptions opt;
    opt.guard.sampleFraction = state.range(0) != 0 ? 0.01 : 0.0;
    runtime::Runtime rt(m, cm, std::move(opt));
    Rng rng(3);
    DenseMatrix b(m.cols(), 32);
    b.fillRandom(rng);
    DenseMatrix c(m.rows(), 32);
    for (auto _ : state) {
        rt.run(b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * m.nnz() * 32);
}
BENCHMARK(BM_RuntimeGuardOverhead)->Arg(0)->Arg(1);

void
BM_SelectorDecision(benchmark::State& state)
{
    static MeTcfMatrix t = MeTcfMatrix::build(benchMatrix());
    const ArchSpec arch = ArchSpec::rtx4090();
    for (auto _ : state) {
        SelectorDecision d = selectKernel(t, arch);
        benchmark::DoNotOptimize(d.approximationRatio);
    }
}
BENCHMARK(BM_SelectorDecision);

} // namespace

// ---- `--smoke` mode: a fast, self-validating comparison of the
// engine-routed kernels against the naive reference and of the SIMD
// backends against each other, written as machine-readable
// BENCH_engine.json.  Run by the `bench_smoke` ctest so the schema and
// the engine's win on rounding work stay checked on every build.

namespace {

/**
 * One result row.  The engine_off_ms / engine_on_ms columns of the
 * dtc-bench-engine-v1 schema hold the slow and the fast arm of each
 * comparison (see each helper for what its arms are).
 */
struct SmokeRow
{
    const char* kernel;
    int64_t n;
    double offMs;
    double onMs;
    uint64_t legacyBRoundOps; ///< reps * nnz * N (per-use rounding).
    uint64_t engineBRoundOps; ///< measured: reps * K * N (once per call).
};

/**
 * Naive referenceSpmmTf32 (@p naive_ms, timed by the caller after a
 * warm-up call) vs the engine-routed @p fn.  Each timed call rounds B
 * once (K*N roundings), as production calls do; the reference rounds
 * B per touching nonzero, reps*nnz*N roundings in all.  The engine's
 * are measured.  Reads the engine counters as before/after deltas
 * instead of resetting them, so the cumulative totals survive into
 * the metrics snapshot this binary writes in --smoke mode.
 */
template <typename F>
SmokeRow
smokeCompare(const char* kernel_name, const CsrMatrix& m, int64_t n,
             int reps, double naive_ms, F&& fn)
{
    SmokeRow row;
    row.kernel = kernel_name;
    row.n = n;
    row.offMs = naive_ms;
    const uint64_t round0 = engine::stats().roundingOps.load();
    row.onMs = bench::timedMs(reps, fn);
    row.engineBRoundOps = engine::stats().roundingOps.load() - round0;
    row.legacyBRoundOps = static_cast<uint64_t>(reps) *
                          static_cast<uint64_t>(m.nnz()) *
                          static_cast<uint64_t>(n);
    return row;
}

/**
 * Scalar-backend vs detected-ISA timing in the engine-row shape: the
 * "off" column runs the portable Isa::Scalar backend, "on" the host's
 * detected ISA.  The rounding-op columns do not apply; both are 0.
 */
template <typename F>
SmokeRow
simdSmokeCompare(const char* kernel_name, int64_t n, int reps, F&& fn)
{
    SmokeRow row;
    row.kernel = kernel_name;
    row.n = n;
    row.legacyBRoundOps = 0;
    row.engineBRoundOps = 0;
    {
        engine::simd::ScopedSimdMode simd(engine::simd::Isa::Scalar);
        fn(); // warm-up: touch B/C pages
        row.offMs = bench::timedMs(reps, fn);
    }
    {
        engine::simd::ScopedSimdMode simd(
            engine::simd::detectedIsa());
        fn();
        row.onMs = bench::timedMs(reps, fn);
    }
    return row;
}

/**
 * Guard-off vs guard-on timing of Runtime::run, reported in the same
 * row shape as the engine rows (off = guard disabled, on = the
 * default 1% sample) so bench_compare gates the guard tax alongside
 * the engine wins.  The rounding-op columns do not apply; both are 0.
 */
SmokeRow
runtimeGuardSmoke(const CsrMatrix& m, int64_t n, int reps)
{
    SmokeRow row;
    row.kernel = "Runtime::run guard_off_on";
    row.n = n;
    row.legacyBRoundOps = 0;
    row.engineBRoundOps = 0;
    const CostModel cm(ArchSpec::rtx4090());
    Rng brng(static_cast<uint64_t>(n) + 1);
    DenseMatrix b(m.cols(), n);
    b.fillRandom(brng);
    DenseMatrix c(m.rows(), n);
    {
        runtime::RuntimeOptions opt;
        opt.guard.sampleFraction = 0.0;
        runtime::Runtime rt(m, cm, std::move(opt));
        rt.run(b, c); // warm-up: prepare the winning kernel
        row.offMs = bench::timedMs(reps, [&] { rt.run(b, c); });
    }
    {
        runtime::RuntimeOptions opt;
        opt.guard.sampleFraction = 0.01;
        runtime::Runtime rt(m, cm, std::move(opt));
        rt.run(b, c);
        row.onMs = bench::timedMs(reps, [&] { rt.run(b, c); });
    }
    return row;
}

/** Threads in a scaling row's "on" column; "off" is 1 thread. */
constexpr int kScalingThreads = 4;

/** Single-call reps per width in a scaling row (interleaved). */
constexpr int kScalingReps = 15;

/**
 * The scaling gate: 4 threads must beat 1 thread by at least this
 * factor.  A shared-cache-line counter on a per-nonzero path drops
 * the 4-thread speedup below 1x (the instrumentation cost this gate
 * exists to catch); contention-free counters leave ~3x here.
 */
constexpr double kMinScalingSpeedup = 1.5;

/**
 * 1-thread vs kScalingThreads-thread timing of one call, in the
 * engine-row shape (off = 1 thread, on = kScalingThreads).  Each
 * column is the median of kScalingReps single-call reps, and the two
 * widths alternate rep by rep, so host noise lands on both alike.
 * The rounding-op columns do not apply; both are 0.
 */
template <typename F>
SmokeRow
threadScalingSmoke(const char* kernel_name, int64_t n, F&& fn)
{
    SmokeRow row;
    row.kernel = kernel_name;
    row.n = n;
    row.legacyBRoundOps = 0;
    row.engineBRoundOps = 0;
    fn(); // warm-up: touch B/C pages
    std::vector<double> one, many;
    for (int i = 0; i < kScalingReps; ++i) {
        {
            ScopedNumThreads threads(1);
            one.push_back(bench::timedMs(1, fn));
        }
        {
            ScopedNumThreads threads(kScalingThreads);
            many.push_back(bench::timedMs(1, fn));
        }
    }
    row.offMs = bench::median(one);
    row.onMs = bench::median(many);
    return row;
}

/** CPUs this process may run on (its affinity mask). */
int
availableCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::thread::hardware_concurrency());
}

/**
 * Checks the scaling rows against kMinScalingSpeedup; false when one
 * falls short.  Skipped (true) on hosts with fewer than
 * kScalingThreads cores, where 4 threads cannot run in parallel.
 */
bool
scalingGate(const std::vector<SmokeRow>& rows)
{
    const int cores = availableCores();
    if (cores < kScalingThreads) {
        std::printf("smoke: thread-scaling gate skipped: %d core(s) "
                    "available, needs %d\n",
                    cores, kScalingThreads);
        return true;
    }
    bool ok = true;
    for (const SmokeRow& r : rows) {
        const double speedup = r.onMs > 0.0 ? r.offMs / r.onMs : 0.0;
        const bool pass = speedup >= kMinScalingSpeedup;
        std::printf("smoke: thread-scaling gate %s n=%lld: 1 thread "
                    "%.3f ms, %d threads %.3f ms (median of %d "
                    "interleaved reps), speedup %.2fx, bound >= "
                    "%.2fx: %s\n",
                    r.kernel, static_cast<long long>(r.n), r.offMs,
                    kScalingThreads, r.onMs, kScalingReps, speedup,
                    kMinScalingSpeedup, pass ? "ok" : "FAIL");
        ok = ok && pass;
    }
    return ok;
}

/** Minimal structural check of the file runEngineSmoke just wrote. */
bool
validateBenchJson(const std::string& path, size_t expect_rows)
{
    std::ifstream in(path);
    if (!in)
        return false;
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (text.find("\"schema\": \"dtc-bench-engine-v1\"") ==
        std::string::npos)
        return false;
    size_t rows = 0;
    for (size_t pos = text.find("\"kernel\":");
         pos != std::string::npos;
         pos = text.find("\"kernel\":", pos + 1))
        rows++;
    if (rows != expect_rows)
        return false;
    for (const char* key : {"\"engine_off_ms\":", "\"engine_on_ms\":",
                            "\"legacy_b_round_ops\":",
                            "\"engine_b_round_ops\":"}) {
        size_t found = 0;
        for (size_t pos = text.find(key); pos != std::string::npos;
             pos = text.find(key, pos + 1)) {
            const double v =
                std::strtod(text.c_str() + pos + std::strlen(key),
                            nullptr);
            if (!(v >= 0.0))
                return false;
            found++;
        }
        if (found != expect_rows)
            return false;
    }
    return true;
}

} // namespace

namespace {

/**
 * Runs each preprocessing phase of the pipeline once over the smoke
 * matrix so the --smoke trace/metrics cover the full span set
 * (sgt.condense, metcf.convert, tca.reorder, tuner.tune,
 * selector.decide) and not only the kernel prepare/compute path.
 */
void
runPipelinePhases(const CsrMatrix& m)
{
    DTC_TRACE_SCOPE("smoke.pipeline");
    const SgtResult sgt = sgtCondense(m);
    const MeTcfMatrix metcf = MeTcfMatrix::build(m);
    TcaParams tca_params;
    tca_params.numHashes = 16; // smoke-sized, still exercises LSH
    const TcaResult tca = tcaReorder(m, tca_params);
    const CostModel cm(ArchSpec::rtx4090());
    TuneRequest req;
    req.denseWidth = 32;
    const TuneResult tuned = tuneSpmm(m, req, cm);
    const SelectorDecision decision =
        selectKernel(metcf, ArchSpec::rtx4090());
    std::printf("smoke: pipeline tc_blocks=%lld clusters=%lld "
                "tuner_best=%s selector_ar=%.3f\n",
                static_cast<long long>(sgt.numTcBlocks),
                static_cast<long long>(tca.numClusters),
                tuned.best().name.c_str(),
                decision.approximationRatio);
}

} // namespace

int
runEngineSmoke(const std::string& out_path,
               const std::string& metrics_path)
{
    // Pin the SIMD backend to the detected ISA for the whole smoke
    // run: the engine.simd.* counter totals in the metrics snapshot
    // must not depend on a DTC_SIMD environment override (the CI
    // DTC_SIMD=scalar leg runs this binary too), and the definitional
    // 8-wide counter split already makes AVX2 and AVX-512 hosts
    // agree.  The simd_scalar_on rows below still force Isa::Scalar
    // locally for their "off" column.
    engine::simd::ScopedSimdMode simd_pin(
        engine::simd::detectedIsa());
    Rng rng(1);
    const CsrMatrix m = genCommunity(4096, 16, 16.0, 0.85, rng);
    runPipelinePhases(m);
    auto dtc_kernel = makeKernel(KernelKind::Dtc);
    auto tcgnn_kernel = makeKernel(KernelKind::Tcgnn);
    if (!dtc_kernel->prepare(m).empty() ||
        !tcgnn_kernel->prepare(m).empty()) {
        std::fprintf(stderr, "smoke: DTC or TC-GNN prepare() refused\n");
        return 1;
    }

    const int64_t widths[] = {32, 128, 512};
    const int reps = 3;
    std::vector<SmokeRow> rows;
    for (int64_t n : widths) {
        Rng brng(static_cast<uint64_t>(n));
        DenseMatrix b(m.cols(), n);
        b.fillRandom(brng);
        DenseMatrix c(m.rows(), n);
        // Both rows share one naive-reference timing as their "off"
        // column: DTC and TC-GNN both compute TF32 SpMM.
        referenceSpmmTf32(m, b, c); // warm-up: touch B/C pages once
        const double naive_ms =
            bench::timedMs(reps, [&] { referenceSpmmTf32(m, b, c); });
        rows.push_back(smokeCompare(
            "DtcKernel::compute", m, n, reps, naive_ms,
            [&] { dtc_kernel->compute(b, c); }));
        rows.push_back(smokeCompare(
            "TcgnnKernel::compute", m, n, reps, naive_ms,
            [&] { tcgnn_kernel->compute(b, c); }));
    }
    // SIMD rows: Isa::Scalar vs detected.  Dense 16x8 blocks on an
    // L2-resident shape give the register-blocked tileInner path
    // something to chew on.  The CSR (TC-GNN) row is axpy-bound and
    // load/store-bound, so the vector win concentrates in tileInner
    // and roundPanel; its row is kept for coverage, not headline
    // speedup.
    {
        Rng srng(2);
        const CsrMatrix md = genBlockDiagonal(1024, 16, 1.0, srng);
        auto dense_kernel = makeKernel(KernelKind::Dtc);
        auto dense_csr_kernel = makeKernel(KernelKind::Tcgnn);
        if (!dense_kernel->prepare(md).empty() ||
            !dense_csr_kernel->prepare(md).empty()) {
            std::fprintf(stderr,
                         "smoke: prepare() refused dense blocks\n");
            return 1;
        }
        Rng brng(128);
        DenseMatrix b(md.cols(), 128);
        b.fillRandom(brng);
        DenseMatrix c(md.rows(), 128);
        const int simd_reps = 30;
        rows.push_back(simdSmokeCompare(
            "DtcKernel::compute simd_scalar_on", 128, simd_reps,
            [&] { dense_kernel->compute(b, c); }));
        rows.push_back(simdSmokeCompare(
            "TcgnnKernel::compute simd_scalar_on", 128, simd_reps,
            [&] { dense_csr_kernel->compute(b, c); }));
    }
    {
        // Raw rounding micro-kernel: one 512-wide panel's worth of
        // B per call, the PreparedDense hot loop.
        const int64_t elems = m.cols() * 512;
        Rng prng(512);
        AlignedVector<float> pin(static_cast<size_t>(elems));
        AlignedVector<float> pout(static_cast<size_t>(elems));
        for (auto& x : pin)
            x = prng.nextFloat(-1.0f, 1.0f);
        SmokeRow row;
        row.kernel = "simd::roundPanel simd_scalar_on";
        row.n = 512;
        row.legacyBRoundOps = 0;
        row.engineBRoundOps = 0;
        const int round_reps = 20;
        {
            const engine::simd::Kernels& K =
                engine::simd::kernelsFor(engine::simd::Isa::Scalar);
            row.offMs = bench::timedMs(round_reps, [&] {
                K.roundPanel(pout.data(), pin.data(), elems,
                             Precision::Tf32);
            });
        }
        {
            const engine::simd::Kernels& K = engine::simd::kernels();
            row.onMs = bench::timedMs(round_reps, [&] {
                K.roundPanel(pout.data(), pin.data(), elems,
                             Precision::Tf32);
            });
        }
        rows.push_back(row);
    }
    // Resilient-runtime row: the guard tax, gated like the rest.
    rows.push_back(runtimeGuardSmoke(m, 32, reps));

    // The baselined counter snapshot covers the rows above; the
    // scaling rows below only repeat that work at two widths.
    const std::string metrics_json = obs::metrics::toJson();

    // Thread-scaling rows: the instrumentation-cost gate.  Counters
    // stay on (they always are); a counter that serializes the
    // workers shows up as a 4-thread time no better than 1-thread.
    std::vector<SmokeRow> scaling;
    {
        const int64_t n = 128;
        Rng brng(static_cast<uint64_t>(n));
        DenseMatrix b(m.cols(), n);
        b.fillRandom(brng);
        DenseMatrix c(m.rows(), n);
        scaling.push_back(threadScalingSmoke(
            "DtcKernel::compute threads_1_4", n,
            [&] { dtc_kernel->compute(b, c); }));
        scaling.push_back(threadScalingSmoke(
            "TcgnnKernel::compute threads_1_4", n,
            [&] { tcgnn_kernel->compute(b, c); }));
        // The guard judging every row of that result: its sampled
        // rows run on the pool like the kernels' own rows do.
        dtc_kernel->compute(b, c);
        runtime::guard::GuardOptions gopt;
        gopt.sampleFraction = 1.0;
        bool guard_ok = true;
        scaling.push_back(threadScalingSmoke(
            "guard::checkSampledRows threads_1_4", n, [&] {
                guard_ok = runtime::guard::checkSampledRows(
                                m, b, c, Precision::Tf32, gopt)
                                .ok() &&
                            guard_ok;
            }));
        if (!guard_ok) {
            std::fprintf(stderr,
                         "smoke: the guard rejected a correct DTC "
                         "result\n");
            return 1;
        }
    }
    rows.insert(rows.end(), scaling.begin(), scaling.end());

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "smoke: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    char buf[256];
    out << "{\n  \"schema\": \"dtc-bench-engine-v1\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"matrix\": {\"rows\": %lld, \"cols\": %lld, "
                  "\"nnz\": %lld},\n  \"reps\": %d,\n",
                  static_cast<long long>(m.rows()),
                  static_cast<long long>(m.cols()),
                  static_cast<long long>(m.nnz()), reps);
    out << buf << "  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const SmokeRow& r = rows[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"kernel\": \"%s\", \"n\": %lld, "
            "\"engine_off_ms\": %.4f, \"engine_on_ms\": %.4f, "
            "\"speedup\": %.3f, \"legacy_b_round_ops\": %llu, "
            "\"engine_b_round_ops\": %llu}%s\n",
            r.kernel, static_cast<long long>(r.n), r.offMs, r.onMs,
            r.onMs > 0.0 ? r.offMs / r.onMs : 0.0,
            static_cast<unsigned long long>(r.legacyBRoundOps),
            static_cast<unsigned long long>(r.engineBRoundOps),
            i + 1 < rows.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    out.close();

    if (!validateBenchJson(out_path, rows.size())) {
        std::fprintf(stderr, "smoke: %s failed schema validation\n",
                     out_path.c_str());
        return 1;
    }

    std::printf("%-22s %6s %14s %13s %9s %13s\n", "kernel", "n",
                "engine_off_ms", "engine_on_ms", "speedup",
                "b_round_ops");
    for (const SmokeRow& r : rows) {
        std::printf("%-22s %6lld %14.4f %13.4f %8.2fx %5.1fx fewer\n",
                    r.kernel, static_cast<long long>(r.n), r.offMs,
                    r.onMs, r.onMs > 0.0 ? r.offMs / r.onMs : 0.0,
                    r.engineBRoundOps > 0
                        ? static_cast<double>(r.legacyBRoundOps) /
                              static_cast<double>(r.engineBRoundOps)
                        : 0.0);
    }
    std::printf("smoke: wrote %s (validated)\n", out_path.c_str());

    if (!metrics_path.empty()) {
        std::ofstream mout(metrics_path);
        mout << metrics_json;
        if (!mout.good()) {
            std::fprintf(stderr, "smoke: cannot write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::printf("smoke: wrote %s\n", metrics_path.c_str());
    }
    return scalingGate(scaling) ? 0 : 1;
}

} // namespace dtc

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out = "BENCH_engine.json";
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else if (arg == "--metrics-out" && i + 1 < argc)
            metrics_out = argv[++i];
    }
    if (smoke)
        return dtc::runEngineSmoke(out, metrics_out);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
