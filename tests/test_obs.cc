/**
 * @file
 * Observability layer tests: trace span nesting and thread
 * attribution, the disarmed-probe cost contract (no recording, no
 * allocation), metrics registry semantics (quantiles, reset-in-place,
 * engine::Stats absorption, exact sharded counters under contention,
 * thread-count-independent engine totals), the dtc-metrics-v1 JSON
 * round-trip
 * through the obs JSON reader, and the bench_compare gate semantics
 * (exact counters, tolerated wall-clock, advisory mode).
 *
 * The metrics registry is process-global and other suites in this
 * binary bump counters too, so every assertion here works on deltas
 * or on names namespaced "test.obs.*" that nothing else touches.
 */
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "engine/engine.h"
#include "engine/simd/simd.h"
#include "kernels/kernel.h"
#include "matrix/dense.h"
#include "obs/bench_compare.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dtc {
namespace {

/** Restores a clean, disarmed trace state around each trace test. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::trace::disable();
        obs::trace::clear();
    }
    void TearDown() override
    {
        obs::trace::disable();
        obs::trace::clear();
    }
};

TEST_F(TraceTest, RecordsNestedSpansWithDepth)
{
    obs::trace::enable();
    {
        DTC_TRACE_SCOPE("test.outer");
        {
            DTC_TRACE_SCOPE("test.inner");
            {
                DTC_TRACE_SCOPE("test.leaf");
            }
        }
    }
    obs::trace::disable();

    const std::vector<obs::SpanRecord> spans = obs::trace::snapshot();
    ASSERT_EQ(spans.size(), 3u);
    // snapshot() orders by (tid, start): outer, inner, leaf.
    EXPECT_EQ(spans[0].name, "test.outer");
    EXPECT_EQ(spans[0].depth, 0);
    EXPECT_EQ(spans[1].name, "test.inner");
    EXPECT_EQ(spans[1].depth, 1);
    EXPECT_EQ(spans[2].name, "test.leaf");
    EXPECT_EQ(spans[2].depth, 2);
    for (const obs::SpanRecord& s : spans) {
        EXPECT_EQ(s.tid, spans[0].tid);
        EXPECT_GE(s.durUs, 0.0);
    }
    // Children start no earlier and end no later than the parent.
    EXPECT_GE(spans[1].tsUs, spans[0].tsUs);
    EXPECT_LE(spans[1].tsUs + spans[1].durUs,
              spans[0].tsUs + spans[0].durUs + 1e-6);
}

TEST_F(TraceTest, AttributesSpansToThreads)
{
    obs::trace::enable();
    {
        DTC_TRACE_SCOPE("test.main_thread");
    }
    std::thread worker([] { DTC_TRACE_SCOPE("test.worker_thread"); });
    worker.join();
    obs::trace::disable();

    const std::vector<obs::SpanRecord> spans = obs::trace::snapshot();
    ASSERT_EQ(spans.size(), 2u);
    int main_tid = -1, worker_tid = -1;
    for (const obs::SpanRecord& s : spans) {
        if (s.name == "test.main_thread")
            main_tid = s.tid;
        if (s.name == "test.worker_thread")
            worker_tid = s.tid;
    }
    ASSERT_GE(main_tid, 0);
    ASSERT_GE(worker_tid, 0);
    EXPECT_NE(main_tid, worker_tid);
}

TEST_F(TraceTest, DisarmedSpansRecordNothingAndAllocateNothing)
{
    // Disarmed (the fixture disabled tracing): spans on a brand-new
    // thread must not record and must not even create that thread's
    // buffer — the constructor bails on one relaxed load.
    const int64_t buffers_before =
        obs::trace::detail::threadBufferCount();
    std::thread t([] {
        for (int i = 0; i < 100; ++i)
            DTC_TRACE_SCOPE("test.disarmed");
    });
    t.join();
    EXPECT_EQ(obs::trace::detail::threadBufferCount(),
              buffers_before);
    EXPECT_TRUE(obs::trace::snapshot().empty());
}

TEST_F(TraceTest, WriteJsonIsChromeTracingLoadable)
{
    obs::trace::enable();
    {
        DTC_TRACE_SCOPE("test.json_span");
        std::thread t([] { DTC_TRACE_SCOPE("test.json_worker"); });
        t.join();
    }
    obs::trace::disable();

    const std::string path = ::testing::TempDir() + "dtc_trace.json";
    ASSERT_TRUE(obs::trace::writeJson(path));

    // The file must be standard JSON with the chrome://tracing shape:
    // a traceEvents array of complete ("ph": "X") events.
    const obs::JsonValue doc = obs::json::parseFile(path);
    const auto& events = doc.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);
    for (const obs::JsonValue& e : events) {
        EXPECT_EQ(e.at("ph").asString(), "X");
        EXPECT_TRUE(e.at("name").isString());
        EXPECT_GE(e.at("dur").asNumber(), 0.0);
        EXPECT_TRUE(e.at("tid").isNumber());
        EXPECT_TRUE(e.at("args").at("depth").isNumber());
    }
}

TEST(ObsMetrics, HistogramNearestRankQuantiles)
{
    obs::Histogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 100);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(ObsMetrics, HistogramCapsQuantileSamplesButNotTotals)
{
    obs::Histogram h;
    const int total = static_cast<int>(obs::Histogram::kMaxSamples) +
                      500;
    for (int i = 0; i < total; ++i)
        h.record(1.0);
    h.record(1000.0); // beyond the sample cap: exact stats only
    EXPECT_EQ(h.count(), total + 1);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(total) + 1000.0);
    // The capped quantile never saw the late outlier.
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);
}

TEST(ObsMetrics, ReferencesSurviveReset)
{
    obs::Counter& c = obs::metrics::counter("test.obs.survivor");
    c.add(7);
    EXPECT_EQ(obs::metrics::counterValue("test.obs.survivor"), 7u);
    obs::metrics::reset();
    EXPECT_EQ(c.load(), 0u);
    c.add(3); // the pre-reset reference still feeds the registry
    EXPECT_EQ(obs::metrics::counterValue("test.obs.survivor"), 3u);
}

TEST(ObsMetrics, EngineStatsAreRegistryCounters)
{
    // engine::Stats is a view over the registry: the same counts must
    // be visible under the public metric names.
    const uint64_t before =
        obs::metrics::counterValue("engine.b_round_ops");
    engine::stats().roundingOps.add(41);
    EXPECT_EQ(obs::metrics::counterValue("engine.b_round_ops"),
              before + 41);
    EXPECT_EQ(engine::stats().roundingOps.load(), before + 41);
}

TEST(ObsMetrics, ShardedCounterIsExactUnderContention)
{
    obs::Counter& c = obs::metrics::counter("test.obs.contended");
    c.reset();
    constexpr int64_t kWorkers = 4;
    constexpr uint64_t kAddsPerWorker = 1000000;
    {
        ScopedNumThreads threads(static_cast<int>(kWorkers));
        parallelFor(0, kWorkers, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t w = lo; w < hi; ++w)
                for (uint64_t i = 0; i < kAddsPerWorker; ++i)
                    c.add(1);
        });
    }
    const uint64_t want = kWorkers * kAddsPerWorker;
    EXPECT_EQ(c.load(), want);
    EXPECT_EQ(obs::metrics::counterValue("test.obs.contended"), want);
    const obs::JsonValue doc =
        obs::json::parse(obs::metrics::toJson());
    EXPECT_EQ(doc.at("counters").at("test.obs.contended").asNumber(),
              static_cast<double>(want));

    c.reset();
    EXPECT_EQ(c.load(), 0u);
    c.add(5);
    obs::metrics::reset();
    EXPECT_EQ(c.load(), 0u);
    EXPECT_EQ(obs::metrics::counterValue("test.obs.contended"), 0u);
}

TEST(ObsMetrics, ShardedCounterIsExactWhenThreadsShareShards)
{
    // More threads than shards: some threads land on the same shard.
    obs::Counter& c = obs::metrics::counter("test.obs.shared_shards");
    c.reset();
    const int num_threads = static_cast<int>(obs::Counter::kShards) + 3;
    constexpr uint64_t kAdds = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t)
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < kAdds; ++i)
                c.add(2);
        });
    for (std::thread& t : threads)
        t.join();
    EXPECT_EQ(c.load(), static_cast<uint64_t>(num_threads) * kAdds * 2);
}

TEST(ObsMetrics, EngineCountersAreThreadCountIndependent)
{
    // Pin the backend the counters depend on, so DTC_SIMD legs run
    // the same check.
    engine::simd::ScopedSimdMode simd(engine::simd::detectedIsa());
    Rng rng(7);
    const CsrMatrix m = genCommunity(1024, 8, 12.0, 0.85, rng);
    auto kernel = makeKernel(KernelKind::Dtc);
    ASSERT_TRUE(kernel->prepare(m).empty());
    // TC-GNN runs the CSR engine driver (spmmCsrRounded) at TF32.
    auto csr_kernel = makeKernel(KernelKind::Tcgnn);
    ASSERT_TRUE(csr_kernel->prepare(m).empty());
    const int64_t n = 75; // 9 full j-blocks plus a 3-wide tail
    DenseMatrix b(m.cols(), n);
    b.fillRandom(rng);

    // {vector_elems, tail_elems, b_round_ops} booked by one DTC
    // compute() plus one TC-GNN compute(); each call rounds B once.
    auto totals = [&](int num_threads) {
        using obs::metrics::counterValue;
        ScopedNumThreads threads(num_threads);
        const std::array<uint64_t, 3> before = {
            counterValue("engine.simd.vector_elems"),
            counterValue("engine.simd.tail_elems"),
            counterValue("engine.b_round_ops")};
        DenseMatrix c(m.rows(), n);
        kernel->compute(b, c);
        csr_kernel->compute(b, c);
        return std::array<uint64_t, 3>{
            counterValue("engine.simd.vector_elems") - before[0],
            counterValue("engine.simd.tail_elems") - before[1],
            counterValue("engine.b_round_ops") - before[2]};
    };
    const std::array<uint64_t, 3> one = totals(1);
    const std::array<uint64_t, 3> four = totals(4);

    EXPECT_EQ(one, four);
    EXPECT_GT(one[0] + one[1], 0u);
    EXPECT_EQ(one[2], 2 * static_cast<uint64_t>(b.size()));
}

TEST(ObsMetrics, ToJsonRoundTripsThroughReader)
{
    obs::metrics::counter("test.obs.rt_counter").add(5);
    obs::metrics::gauge("test.obs.rt_gauge").set(2.5);
    obs::Histogram& h =
        obs::metrics::histogram("test.obs.rt_hist");
    h.reset();
    h.record(1.0);
    h.record(3.0);

    const obs::JsonValue doc =
        obs::json::parse(obs::metrics::toJson());
    EXPECT_EQ(doc.at("schema").asString(), "dtc-metrics-v1");
    EXPECT_GE(
        doc.at("counters").at("test.obs.rt_counter").asNumber(),
        5.0);
    EXPECT_DOUBLE_EQ(
        doc.at("gauges").at("test.obs.rt_gauge").asNumber(), 2.5);
    const obs::JsonValue& hist =
        doc.at("histograms").at("test.obs.rt_hist");
    EXPECT_DOUBLE_EQ(hist.at("count").asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(hist.at("min").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(hist.at("max").asNumber(), 3.0);
}

TEST(ObsJson, RejectsMalformedInput)
{
    EXPECT_THROW(obs::json::parse(""), DtcError);
    EXPECT_THROW(obs::json::parse("{"), DtcError);
    EXPECT_THROW(obs::json::parse("{\"a\": 1} extra"), DtcError);
    EXPECT_THROW(obs::json::parse("{'a': 1}"), DtcError);
    EXPECT_THROW(obs::json::parse("[1, 2,]"), DtcError);
    EXPECT_THROW(obs::json::parse("nul"), DtcError);
}

TEST(ObsJson, ParsesEscapesAndNumbers)
{
    const obs::JsonValue v = obs::json::parse(
        "{\"s\": \"a\\n\\\"b\\u0041\", \"n\": -1.5e2, "
        "\"t\": true, \"z\": null, \"a\": [1, 2]}");
    EXPECT_EQ(v.at("s").asString(), "a\n\"bA");
    EXPECT_DOUBLE_EQ(v.at("n").asNumber(), -150.0);
    EXPECT_TRUE(v.at("t").asBool());
    EXPECT_TRUE(v.at("z").isNull());
    ASSERT_EQ(v.at("a").asArray().size(), 2u);
    EXPECT_FALSE(v.has("missing"));
    EXPECT_THROW(v.at("missing"), DtcError);
}

// ---- bench_compare gate semantics over fixture documents.

std::string
engineDoc(const char* off_ms, const char* round_ops)
{
    std::string s = "{\"schema\": \"dtc-bench-engine-v1\",";
    s += "\"matrix\": {\"rows\": 64, \"cols\": 64, \"nnz\": 256},";
    s += "\"reps\": 3, \"results\": [{\"kernel\": \"K\", \"n\": 32,";
    s += " \"engine_off_ms\": ";
    s += off_ms;
    s += ", \"engine_on_ms\": 1.0, \"speedup\": 1.0,";
    s += " \"legacy_b_round_ops\": 100, \"engine_b_round_ops\": ";
    s += round_ops;
    s += "}]}";
    return s;
}

TEST(ObsBenchCompare, PassesOnIdenticalDocuments)
{
    const obs::JsonValue doc =
        obs::json::parse(engineDoc("10.0", "42"));
    const obs::compare::Report r = obs::compare::compareEngineBench(
        doc, doc, obs::compare::Options{});
    EXPECT_TRUE(r.ok());
    EXPECT_GT(r.checks, 0);
    EXPECT_TRUE(r.advisories.empty());
}

TEST(ObsBenchCompare, CounterDriftAlwaysFails)
{
    const obs::JsonValue base =
        obs::json::parse(engineDoc("10.0", "42"));
    const obs::JsonValue cur =
        obs::json::parse(engineDoc("10.0", "43"));
    obs::compare::Options opts;
    opts.wallclockAdvisory = true; // counters must still gate
    const obs::compare::Report r =
        obs::compare::compareEngineBench(base, cur, opts);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_NE(r.failures[0].find("engine_b_round_ops"),
              std::string::npos);
}

TEST(ObsBenchCompare, WallclockRespectsToleranceAndAdvisoryMode)
{
    const obs::JsonValue base =
        obs::json::parse(engineDoc("10.0", "42"));
    const obs::JsonValue within =
        obs::json::parse(engineDoc("12.0", "42"));
    const obs::JsonValue outside =
        obs::json::parse(engineDoc("20.0", "42"));

    obs::compare::Options opts; // default ±25%
    EXPECT_TRUE(obs::compare::compareEngineBench(base, within, opts)
                    .ok());

    const obs::compare::Report fail =
        obs::compare::compareEngineBench(base, outside, opts);
    EXPECT_FALSE(fail.ok());

    opts.wallclockAdvisory = true;
    const obs::compare::Report advisory =
        obs::compare::compareEngineBench(base, outside, opts);
    EXPECT_TRUE(advisory.ok());
    EXPECT_FALSE(advisory.advisories.empty());

    // A loose explicit tolerance also passes outright.
    obs::compare::Options loose;
    loose.tolerance = 1.5;
    EXPECT_TRUE(obs::compare::compareEngineBench(base, outside, loose)
                    .ok());
}

TEST(ObsBenchCompare, MissingRowFails)
{
    const obs::JsonValue base =
        obs::json::parse(engineDoc("10.0", "42"));
    std::string two_rows = engineDoc("10.0", "42");
    // Splice in a second row so current-vs-base has one extra
    // (advisory) and base-vs-current has one missing (failure).
    const std::string extra =
        ", {\"kernel\": \"K2\", \"n\": 64, \"engine_off_ms\": 1.0, "
        "\"engine_on_ms\": 1.0, \"speedup\": 1.0, "
        "\"legacy_b_round_ops\": 1, \"engine_b_round_ops\": 1}";
    two_rows.insert(two_rows.rfind("]"), extra);
    const obs::JsonValue wide = obs::json::parse(two_rows);

    const obs::compare::Report extra_row =
        obs::compare::compareEngineBench(base, wide,
                                         obs::compare::Options{});
    EXPECT_TRUE(extra_row.ok());
    EXPECT_FALSE(extra_row.advisories.empty());

    const obs::compare::Report missing_row =
        obs::compare::compareEngineBench(wide, base,
                                         obs::compare::Options{});
    EXPECT_FALSE(missing_row.ok());
}

TEST(ObsBenchCompare, MetricsCountersExactHistogramCountsExact)
{
    const char* base_text =
        "{\"schema\": \"dtc-metrics-v1\","
        "\"counters\": {\"c\": 5},"
        "\"gauges\": {\"g\": 1.0},"
        "\"histograms\": {\"h\": {\"count\": 3, \"sum\": 6.0,"
        " \"min\": 1.0, \"max\": 3.0, \"p50\": 2.0, \"p95\": 3.0}}}";
    const obs::JsonValue base = obs::json::parse(base_text);

    obs::compare::Options opts;
    opts.wallclockAdvisory = true;
    EXPECT_TRUE(
        obs::compare::compareMetrics(base, base, opts).ok());

    // Counter drift fails even in advisory mode.
    std::string drift(base_text);
    drift.replace(drift.find("\"c\": 5"), 6, "\"c\": 6");
    EXPECT_FALSE(obs::compare::compareMetrics(
                     base, obs::json::parse(drift), opts)
                     .ok());

    // Histogram sample-count drift fails too (it is deterministic).
    std::string count_drift(base_text);
    count_drift.replace(count_drift.find("\"count\": 3"), 10,
                        "\"count\": 4");
    EXPECT_FALSE(obs::compare::compareMetrics(
                     base, obs::json::parse(count_drift), opts)
                     .ok());

    // Wall-clock-class drift (histogram stats) is advisory here.
    std::string slow(base_text);
    slow.replace(slow.find("\"sum\": 6.0"), 10, "\"sum\": 60.0");
    const obs::compare::Report r = obs::compare::compareMetrics(
        base, obs::json::parse(slow), opts);
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.advisories.empty());
}

TEST(ObsBenchCompare, SchemaMismatchFailsTheGate)
{
    const obs::JsonValue engine =
        obs::json::parse(engineDoc("10.0", "42"));
    const obs::JsonValue metrics = obs::json::parse(
        "{\"schema\": \"dtc-metrics-v1\", \"counters\": {},"
        " \"gauges\": {}, \"histograms\": {}}");
    // A wrong-schema document fails the report before any field
    // comparison (it does not throw: the CLI turns the report into
    // exit code 1).
    const obs::compare::Report eng = obs::compare::compareEngineBench(
        engine, metrics, obs::compare::Options{});
    EXPECT_FALSE(eng.ok());
    EXPECT_NE(eng.toString().find("schema"), std::string::npos);
    const obs::compare::Report met = obs::compare::compareMetrics(
        metrics, engine, obs::compare::Options{});
    EXPECT_FALSE(met.ok());
}

} // namespace
} // namespace dtc
