/**
 * @file
 * bench_serve — serving-layer smoke benchmark (--smoke is the ctest /
 * CI entry point).
 *
 * Two self-validating rows in the dtc-bench-engine-v1 schema, gated
 * by bench_compare against bench/baselines/BENCH_serve.json:
 *
 *   - "SpmmService cold_vs_warm": first-request latency (tune +
 *     prepare + run) vs the mean warm-cache request.  The counter
 *     columns *prove* reuse rather than inferring it from timing:
 *     legacy_b_round_ops = tuner invocations billed to the cold
 *     request (must be 1), engine_b_round_ops = tuner invocations
 *     across every warm request (must be 0, or the bench fails).
 *   - "SpmmService serial8_vs_batch8": eight serial Runtime::run
 *     calls over separate B panels vs one coalesced batch of the
 *     same eight panels through the service.  The batch must win
 *     (the kernel walks A's nonzeros once per wide panel instead of
 *     eight times) and must be bitwise identical per panel (SpMM is
 *     column-independent), both asserted here.  Each arm first runs
 *     the 3 counted reps ("reps" in the JSON); the timing columns are
 *     then medians of kTimedReps interleaved reps per arm, run after
 *     the metrics snapshot so they leave the counter totals alone.
 *
 * Counters are exact across runs/compilers; wall-clock columns are
 * gated advisory (--wallclock-advisory) like every other bench.
 * Also writes a dtc-metrics-v1 snapshot (METRICS_serve.json) so the
 * serve.* counter totals are baseline-gated too.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "engine/simd/simd.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "matrix/dense.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serve/service.h"

namespace dtc {
namespace {

struct SmokeRow
{
    const char* kernel;
    int64_t n;
    double offMs;
    double onMs;
    uint64_t legacyBRoundOps;
    uint64_t engineBRoundOps;
};

/** Timed reps per arm of the serial8_vs_batch8 row. */
constexpr int kTimedReps = 9;

/** Dense operand with a seeded fill. */
DenseMatrix
makePanel(int64_t rows, int64_t cols, uint64_t seed)
{
    Rng rng(seed);
    DenseMatrix b(rows, cols);
    b.fillRandom(rng);
    return b;
}

int
runServeSmoke(const std::string& out_path,
              const std::string& metrics_path)
{
    // Pin the SIMD backend to the detected ISA: the engine.simd.*
    // counter totals in the metrics snapshot must not depend on a
    // DTC_SIMD override (the CI DTC_SIMD=scalar leg runs this binary
    // too).  Deterministic mode serves requests on this thread, so the
    // thread-local pin reaches them.
    engine::simd::ScopedSimdMode simd_pin(engine::simd::detectedIsa());
    const CostModel cm(ArchSpec::rtx4090());
    Rng rng(1);
    const CsrMatrix m = genCommunity(4096, 16, 16.0, 0.85, rng);
    const int64_t n = 16;
    const Precision p = Precision::Fp32;
    std::vector<SmokeRow> rows;
    std::string metrics_json; // counter snapshot, taken in row 2

    serve::ServeOptions so;
    so.deterministic = true; // bitwise-replayable, single thread
    so.cacheBytes = int64_t{64} << 20;
    serve::SpmmService svc(so, &cm);
    const serve::MatrixHandle h = svc.attach(m);
    const DenseMatrix b = makePanel(m.cols(), n, 42);

    // Row 1: cold (tune + prepare + run) vs warm (cache hit) request.
    {
        SmokeRow row;
        row.kernel = "SpmmService cold_vs_warm";
        row.n = n;
        const uint64_t tunes0 =
            obs::metrics::counterValue("tuner.tunes");
        const uint64_t hits0 =
            obs::metrics::counterValue("serve.cache.hits");
        row.offMs = bench::timedMs(1, [&] { svc.run(h, b, p); });
        const uint64_t tunes_cold =
            obs::metrics::counterValue("tuner.tunes") - tunes0;

        const int warm_reps = 5;
        row.onMs = bench::timedMs(warm_reps, [&] { svc.run(h, b, p); }) /
                   warm_reps;
        const uint64_t tunes_warm =
            obs::metrics::counterValue("tuner.tunes") - tunes0 -
            tunes_cold;
        const uint64_t hits =
            obs::metrics::counterValue("serve.cache.hits") - hits0;

        row.legacyBRoundOps = tunes_cold;
        row.engineBRoundOps = tunes_warm;
        rows.push_back(row);

        if (tunes_cold != 1 || tunes_warm != 0 ||
            hits != static_cast<uint64_t>(warm_reps)) {
            std::fprintf(stderr,
                         "serve smoke: warm path re-tuned or missed "
                         "the cache (cold_tunes=%llu warm_tunes=%llu "
                         "hits=%llu, want 1/0/%d)\n",
                         static_cast<unsigned long long>(tunes_cold),
                         static_cast<unsigned long long>(tunes_warm),
                         static_cast<unsigned long long>(hits),
                         warm_reps);
            return 1;
        }
    }

    // Row 2: eight serial Runtime::run calls vs one batch of eight.
    {
        SmokeRow row;
        row.kernel = "SpmmService serial8_vs_batch8";
        row.n = n;

        const int64_t panels = 8;
        std::vector<DenseMatrix> bs;
        for (int64_t i = 0; i < panels; ++i)
            bs.push_back(
                makePanel(m.cols(), n,
                          100 + static_cast<uint64_t>(i)));

        // The serial arm reuses the service's tuned state so both
        // arms pay zero tuning and run the same winning kernel —
        // the delta is purely eight A-traversals vs one.
        runtime::RuntimeOptions ropt = so.runtime;
        ropt.precision = p;
        runtime::Runtime rt(
            m, svc.cache().acquire(m, p)->rt->tunedState(), ropt);
        std::vector<DenseMatrix> serial_c(
            panels, DenseMatrix(m.rows(), n));
        rt.run(bs[0], serial_c[0]); // warm-up: prepare the kernel

        // The counted reps: their work is what METRICS_serve.json
        // baselines, and their results are checked below.  They also
        // warm both arms, so the batch arm's fresh wide and result
        // buffers are not first-touched inside the timed reps.
        const int reps = 3;
        auto serial_arm = [&] {
            for (int64_t i = 0; i < panels; ++i)
                rt.run(bs[i], serial_c[i]);
        };
        std::vector<serve::SubmitResult> batch;
        auto batch_arm = [&] { batch = svc.runBatch(h, bs, p); };
        for (int i = 0; i < reps; ++i)
            serial_arm();
        for (int i = 0; i < reps; ++i)
            batch_arm();

        for (int64_t i = 0; i < panels; ++i) {
            if (batch[static_cast<size_t>(i)].batchSize != panels) {
                std::fprintf(stderr,
                             "serve smoke: batch did not coalesce "
                             "(batchSize=%lld, want %lld)\n",
                             static_cast<long long>(
                                 batch[static_cast<size_t>(i)]
                                     .batchSize),
                             static_cast<long long>(panels));
                return 1;
            }
            if (!(batch[static_cast<size_t>(i)].c ==
                  serial_c[static_cast<size_t>(i)])) {
                std::fprintf(stderr,
                             "serve smoke: batched panel %lld is not "
                             "bitwise equal to its serial run\n",
                             static_cast<long long>(i));
                return 1;
            }
        }

        // Timed reps, after the counter snapshot: the arms alternate
        // rep by rep and each column is a median, so a host stall
        // cannot land on one arm only.
        metrics_json = obs::metrics::toJson();
        std::vector<double> serial_ms, batch_ms;
        for (int i = 0; i < kTimedReps; ++i) {
            serial_ms.push_back(bench::timedMs(1, serial_arm));
            batch_ms.push_back(bench::timedMs(1, batch_arm));
        }
        row.offMs = bench::median(serial_ms);
        row.onMs = bench::median(batch_ms);
        if (!(row.onMs < row.offMs)) {
            std::fprintf(stderr,
                         "serve smoke: batch=8 (%.4f ms) did not "
                         "beat 8 serial runs (%.4f ms)\n",
                         row.onMs, row.offMs);
            return 1;
        }

        row.legacyBRoundOps = static_cast<uint64_t>(panels);
        row.engineBRoundOps = 1; // executions per batched arm rep
        rows.push_back(row);
    }

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "serve smoke: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    char buf[256];
    out << "{\n  \"schema\": \"dtc-bench-engine-v1\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"matrix\": {\"rows\": %lld, \"cols\": %lld, "
                  "\"nnz\": %lld},\n  \"reps\": 3,\n",
                  static_cast<long long>(m.rows()),
                  static_cast<long long>(m.cols()),
                  static_cast<long long>(m.nnz()));
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

    std::printf("%-30s %6s %10s %10s %8s\n", "row", "n", "off_ms",
                "on_ms", "speedup");
    for (const SmokeRow& r : rows)
        std::printf("%-30s %6lld %10.4f %10.4f %7.2fx\n", r.kernel,
                    static_cast<long long>(r.n), r.offMs, r.onMs,
                    r.onMs > 0.0 ? r.offMs / r.onMs : 0.0);
    std::printf("serve smoke: wrote %s\n", out_path.c_str());

    if (!metrics_path.empty()) {
        std::ofstream mout(metrics_path);
        mout << metrics_json;
        if (!mout.good()) {
            std::fprintf(stderr, "serve smoke: cannot write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::printf("serve smoke: wrote %s\n", metrics_path.c_str());
    }
    return 0;
}

} // namespace
} // namespace dtc

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out = "BENCH_serve.json";
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            metrics_out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s --smoke [--out FILE] "
                         "[--metrics-out FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!smoke) {
        std::fprintf(stderr, "bench_serve: only --smoke for now\n");
        return 2;
    }
    return dtc::runServeSmoke(out, metrics_out);
}
