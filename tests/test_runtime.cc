/**
 * @file
 * Tests for the resilient runtime: circuit-breaker state machine,
 * deadline/cancellation plumbing, retry + reroute under injected
 * faults, and the online sampled-row result guard.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/env.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/fault_sites.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/generators.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "kernels/reference.h"
#include "obs/metrics.h"
#include "runtime/breaker.h"
#include "runtime/guard.h"
#include "runtime/runtime.h"
#include "testing/oracle.h"

namespace dtc {
namespace {

using runtime::BreakerOptions;
using runtime::BreakerRegistry;
using runtime::CircuitBreaker;
using runtime::RunReport;
using runtime::Runtime;
using runtime::RuntimeOptions;

class RuntimeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        runtime::guard::setSampleFraction(0.0); // opt-in per test
    }
    void
    TearDown() override
    {
        fault::disarmAll();
        runtime::guard::setSampleFraction(-1.0); // back to env
    }

    CostModel cm{ArchSpec::rtx4090()};
    Rng rng{99};
};

/** Max |got - want| across the whole matrix. */
double
maxDiff(const DenseMatrix& got, const DenseMatrix& want)
{
    return got.maxAbsDiff(want);
}

/** Loose correctness vs the double-accumulation reference. */
void
expectCloseToReference(const CsrMatrix& a, const DenseMatrix& b,
                       const DenseMatrix& got)
{
    DenseMatrix want(a.rows(), b.cols());
    referenceSpmm(a, b, want);
    // TF32 operand rounding on unit-scale data stays well inside 0.05.
    EXPECT_LT(maxDiff(got, want), 0.05);
}

// ---------------------------------------------------------------------
// Circuit breaker state machine
// ---------------------------------------------------------------------

TEST(CircuitBreaker, ClosedToOpenToHalfOpenToClosed)
{
    BreakerOptions opt;
    opt.failureThreshold = 3;
    opt.cooldownRejections = 2;
    CircuitBreaker br("k", opt);

    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    br.onFailure();
    br.onFailure();
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(br.consecutiveFailures(), 2);
    EXPECT_TRUE(br.allow());
    br.onFailure(); // third consecutive failure trips it
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);

    // Cool-down counted in rejected requests: one rejection, then the
    // caller that drains the budget becomes the half-open probe.
    EXPECT_FALSE(br.allow());
    EXPECT_TRUE(br.allow()); // cool-down elapsed: probe granted
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    // Only one probe is in flight.
    EXPECT_FALSE(br.allow());
    br.onSuccess();
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(br.consecutiveFailures(), 0);
    EXPECT_TRUE(br.allow());
}

TEST(CircuitBreaker, FailedProbeReopensWithFreshCooldown)
{
    BreakerOptions opt;
    opt.failureThreshold = 1;
    opt.cooldownRejections = 2;
    CircuitBreaker br("k", opt);
    br.onFailure();
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(br.allow()); // rejection 1 of 2
    EXPECT_TRUE(br.allow());  // cool-down elapsed: this is the probe
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
    br.onFailure(); // probe failed
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);
    // The cool-down restarted in full: a rejection comes first again.
    EXPECT_FALSE(br.allow());
    EXPECT_TRUE(br.allow());
    EXPECT_EQ(br.state(), CircuitBreaker::State::HalfOpen);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveFailures)
{
    BreakerOptions opt;
    opt.failureThreshold = 3;
    CircuitBreaker br("k", opt);
    br.onFailure();
    br.onFailure();
    br.onSuccess();
    br.onFailure();
    br.onFailure();
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
}

TEST(CircuitBreaker, RegistryKeysByKernelName)
{
    BreakerRegistry reg;
    CircuitBreaker& a = reg.forKernel("a");
    CircuitBreaker& b = reg.forKernel("b");
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&a, &reg.forKernel("a"));
    a.onFailure();
    reg.resetAll();
    EXPECT_EQ(a.consecutiveFailures(), 0);
}

// ---------------------------------------------------------------------
// Cooperative cancellation & deadlines
// ---------------------------------------------------------------------

TEST_F(RuntimeTest, CancelAbortsParallelForMidSpmm)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 7);
    DenseMatrix c(a.rows(), b.cols());

    CancelToken tok;
    tok.cancel();
    cancel::ScopedCancel scope(&tok);
    try {
        referenceSpmm(a, b, c);
        FAIL() << "should have thrown";
    } catch (const DtcError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
    }
}

TEST_F(RuntimeTest, DeterministicDeadlineTripsAtNthPoll)
{
    ScopedNumThreads serial(1);
    CsrMatrix a = genUniform(256, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 16, 3);
    DenseMatrix c(a.rows(), b.cols());

    CancelToken tok;
    tok.expireAfterChecks(3);
    cancel::ScopedCancel scope(&tok);
    try {
        referenceSpmm(a, b, c);
        FAIL() << "should have thrown";
    } catch (const DtcError& e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
    }
}

TEST_F(RuntimeTest, RunIsLeakFreeAfterDeadlineAbort)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 9);
    Runtime rt(a, cm, RuntimeOptions{});

    DenseMatrix c(a.rows(), b.cols());
    {
        CancelToken tok;
        tok.expireAfterChecks(1);
        cancel::ScopedCancel scope(&tok);
        try {
            rt.run(b, c);
            FAIL() << "should have thrown";
        } catch (const DtcError& e) {
            EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
        }
    }
    // The same instance serves the next request correctly: nothing
    // leaked from the aborted run.
    RunReport rep;
    rt.run(b, c, &rep);
    EXPECT_FALSE(rep.kernel.empty());
    expectCloseToReference(a, b, c);
}

TEST_F(RuntimeTest, DeadlineExpiryAtEveryPhaseIsTypedOrCorrect)
{
    // Walk the deterministic deadline through every poll point of the
    // pipeline (candidate loop, attempt loop, engine panels via
    // parallelFor, guard rows): each run must either throw the typed
    // DeadlineExceeded or complete with a correct result — never
    // hang, never return garbage silently.
    ScopedNumThreads serial(1);
    CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 16, 5);
    DenseMatrix want(a.rows(), b.cols());
    referenceSpmm(a, b, want);

    int threw = 0;
    int succeeded = 0;
    for (int64_t k = 1; k <= 96 && succeeded < 3; ++k) {
        RuntimeOptions opt;
        opt.deadlineChecks = k;
        opt.guard.sampleFraction = 0.1;
        Runtime rt(a, cm, std::move(opt));
        DenseMatrix c(a.rows(), b.cols());
        try {
            rt.run(b, c);
            ++succeeded;
            EXPECT_LT(maxDiff(c, want), 0.05) << "k=" << k;
        } catch (const DtcError& e) {
            ++threw;
            EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded)
                << "k=" << k;
        }
    }
    EXPECT_GT(threw, 0);
    EXPECT_GT(succeeded, 0) << "deadline never stopped tripping — "
                               "polls are not being consumed";
}

TEST_F(RuntimeTest, GarbageDeadlineEnvThrowsTyped)
{
    CsrMatrix a = genUniform(128, 4.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 8, 1);
    Runtime rt(a, cm, RuntimeOptions{});
    DenseMatrix c(a.rows(), b.cols());

    ASSERT_EQ(setenv("DTC_DEADLINE_MS", "10 ms", 1), 0);
    try {
        rt.run(b, c);
        FAIL() << "should have thrown";
    } catch (const DtcError& e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidInput);
        EXPECT_NE(std::string(e.what()).find("DTC_DEADLINE_MS"),
                  std::string::npos);
    }
    ASSERT_EQ(setenv("DTC_DEADLINE_MS", "60000", 1), 0);
    EXPECT_NO_THROW(rt.run(b, c));
    ASSERT_EQ(unsetenv("DTC_DEADLINE_MS"), 0);
}

TEST_F(RuntimeTest, RunWithDeadlineConvenienceCompletes)
{
    CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 16, 2);
    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    runtime::runWithDeadline(a, b, c, cm, /*deadline_ms=*/60000,
                             &rep);
    EXPECT_FALSE(rep.kernel.empty());
    EXPECT_EQ(rep.attempts, 1);
    expectCloseToReference(a, b, c);
}

// ---------------------------------------------------------------------
// Retry, reroute, breaker integration (deterministic under DTC_FAULT)
// ---------------------------------------------------------------------

TEST_F(RuntimeTest, TransientFaultRetriesSameKernelAndSucceeds)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 4);
    Runtime rt(a, cm, RuntimeOptions{});
    const std::string best = rt.tuning().best().name;

    fault::ScopedFault f(fault::sites::kRuntimeCompute, 1,
                         ErrorCode::ResourceExhausted);
    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    rt.run(b, c, &rep);
    // One transient failure, one retry, same kernel won.
    EXPECT_EQ(rep.kernel, best);
    EXPECT_EQ(rep.attempts, 2);
    EXPECT_EQ(rep.retries, 1);
    ASSERT_EQ(rep.failures.size(), 1u);
    EXPECT_EQ(rep.failures[0].code, ErrorCode::ResourceExhausted);
    expectCloseToReference(a, b, c);
}

TEST_F(RuntimeTest, NonTransientFaultReroutesToNextBest)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 8);
    Runtime rt(a, cm, RuntimeOptions{});
    const std::string best = rt.tuning().best().name;

    fault::ScopedFault f(fault::sites::kRuntimeCompute, 1,
                         ErrorCode::Internal);
    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    rt.run(b, c, &rep);
    EXPECT_NE(rep.kernel, best);
    EXPECT_FALSE(rep.kernel.empty());
    EXPECT_EQ(rep.attempts, 2); // no same-kernel retry for Internal
    expectCloseToReference(a, b, c);
}

TEST_F(RuntimeTest, PersistentFailureTripsBreakerThenHalfOpenHeals)
{
    // The ISSUE acceptance drill: a kernel failing persistently trips
    // its breaker within K attempts; requests keep completing on the
    // fallback; after the cool-down the breaker half-opens and the
    // healed kernel wins again.  DTC_FAULT fires once per arming, so
    // "persistent" = re-arm before every request.
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 6);
    RuntimeOptions opt;
    opt.breaker.failureThreshold = 3; // K
    opt.breaker.cooldownRejections = 2;
    Runtime rt(a, cm, std::move(opt));
    const std::string best = rt.tuning().best().name;
    CircuitBreaker& br = rt.breakers().forKernel(best);

    // K failing requests: each fails the best kernel once (Internal,
    // so no same-kernel retry) and completes on the fallback.
    for (int i = 0; i < 3; ++i) {
        fault::ScopedFault f(fault::sites::kRuntimeCompute, 1,
                             ErrorCode::Internal);
        DenseMatrix c(a.rows(), b.cols());
        RunReport rep;
        rt.run(b, c, &rep);
        EXPECT_NE(rep.kernel, best) << "request " << i;
        expectCloseToReference(a, b, c);
    }
    EXPECT_EQ(br.state(), CircuitBreaker::State::Open);

    // While open, healthy requests are served by the fallback without
    // touching the quarantined kernel; each counts toward cool-down.
    {
        DenseMatrix c(a.rows(), b.cols());
        RunReport rep;
        rt.run(b, c, &rep);
        EXPECT_NE(rep.kernel, best);
        expectCloseToReference(a, b, c);
    }
    {
        // Second rejection elapses the cool-down: this request's
        // allow() half-opens and the probe (now healthy) succeeds.
        DenseMatrix c(a.rows(), b.cols());
        RunReport rep;
        rt.run(b, c, &rep);
        EXPECT_EQ(rep.kernel, best);
        expectCloseToReference(a, b, c);
    }
    EXPECT_EQ(br.state(), CircuitBreaker::State::Closed);
}

TEST_F(RuntimeTest, BreakerMetricsAreTallied)
{
    obs::metrics::reset();
    BreakerOptions opt;
    opt.failureThreshold = 1;
    opt.cooldownRejections = 1;
    CircuitBreaker br("kernel-x", opt);
    br.onFailure();            // opened
    (void)br.allow();          // rejection -> half_open
    br.onFailure();            // reopened
    (void)br.allow();          // rejection -> half_open
    br.onSuccess();            // closed
    EXPECT_EQ(obs::metrics::counterValue("runtime.breaker.opened"),
              1u);
    EXPECT_EQ(obs::metrics::counterValue("runtime.breaker.reopened"),
              1u);
    EXPECT_EQ(
        obs::metrics::counterValue("runtime.breaker.half_open"), 2u);
    EXPECT_EQ(obs::metrics::counterValue("runtime.breaker.closed"),
              1u);
    EXPECT_EQ(
        obs::metrics::counterValue("runtime.failures.kernel-x"), 2u);
}

// ---------------------------------------------------------------------
// Online result guard
// ---------------------------------------------------------------------

TEST_F(RuntimeTest, GuardAcceptsCorrectResults)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 11);
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmmTf32(a, b, c);
    runtime::guard::GuardOptions opt;
    opt.sampleFraction = 1.0; // every row
    const runtime::guard::GuardResult g =
        runtime::guard::checkSampledRows(a, b, c, Precision::Tf32,
                                         opt);
    EXPECT_EQ(g.rowsChecked, a.rows());
    EXPECT_TRUE(g.ok()) << g.detail;
}

TEST_F(RuntimeTest, GuardFlagsSilentCorruption)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 12);
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmm(a, b, c);
    c.at(100, 3) += 10.0f; // silent bit corruption
    runtime::guard::GuardOptions opt;
    opt.sampleFraction = 1.0;
    const runtime::guard::GuardResult g =
        runtime::guard::checkSampledRows(a, b, c, Precision::Fp32,
                                         opt);
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.firstBadRow, 100);
    EXPECT_NE(g.detail.find("guard mismatch"), std::string::npos);
}

TEST_F(RuntimeTest, GuardSamplingIsDeterministic)
{
    CsrMatrix a = genUniform(1024, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 16, 13);
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmm(a, b, c);
    runtime::guard::GuardOptions opt;
    opt.sampleFraction = 0.01;
    const auto g1 = runtime::guard::checkSampledRows(
        a, b, c, Precision::Fp32, opt);
    const auto g2 = runtime::guard::checkSampledRows(
        a, b, c, Precision::Fp32, opt);
    EXPECT_EQ(g1.rowsChecked, g2.rowsChecked);
    EXPECT_GE(g1.rowsChecked, 1);
    EXPECT_LE(g1.rowsChecked, 16); // ~1% of 1024
}

/**
 * The guard judges sampled rows in parallel chunks but folds their
 * verdicts in row order: the same GuardResult at every thread count,
 * with the lowest bad sampled row first.
 */
TEST_F(RuntimeTest, GuardResultIsThreadCountInvariant)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 15);
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmmTf32(a, b, c);
    // Bad rows in several chunks, the lowest not in the first one;
    // row 130 twice, so its first bad column is the one reported.
    c.at(300, 1) += 10.0f;
    c.at(130, 7) -= 10.0f;
    c.at(130, 2) += 10.0f;
    c.at(257, 0) = std::numeric_limits<float>::quiet_NaN();
    c.at(509, 31) *= 4.0f;
    runtime::guard::GuardOptions opt;
    opt.sampleFraction = 1.0; // every row is a sampled row
    std::vector<runtime::guard::GuardResult> results;
    for (int threads : {1, 4, 8}) {
        ScopedNumThreads nt(threads);
        results.push_back(runtime::guard::checkSampledRows(
            a, b, c, Precision::Tf32, opt));
    }
    EXPECT_EQ(results[0].rowsChecked, a.rows());
    EXPECT_EQ(results[0].mismatches, 4);
    EXPECT_EQ(results[0].firstBadRow, 130);
    EXPECT_NE(results[0].detail.find("(130,2)"), std::string::npos)
        << results[0].detail;
    for (const auto& g : results) {
        EXPECT_EQ(g.rowsChecked, results[0].rowsChecked);
        EXPECT_EQ(g.mismatches, results[0].mismatches);
        EXPECT_EQ(g.firstBadRow, results[0].firstBadRow);
        EXPECT_EQ(g.detail, results[0].detail);
    }
}

TEST_F(RuntimeTest, GuardCatchesOneBadRowOnThePool)
{
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 16);
    DenseMatrix c(a.rows(), b.cols());
    referenceSpmmTf32(a, b, c);
    c.at(437, 5) += 1.0f;
    runtime::guard::GuardOptions opt;
    opt.sampleFraction = 1.0;
    ScopedNumThreads nt(4);
    const runtime::guard::GuardResult g =
        runtime::guard::checkSampledRows(a, b, c, Precision::Tf32, opt);
    EXPECT_EQ(g.mismatches, 1);
    EXPECT_EQ(g.firstBadRow, 437);
}

TEST_F(RuntimeTest, GuardMismatchTriggersReexecutionOnFallback)
{
    obs::metrics::reset();
    CsrMatrix a = genUniform(512, 8.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 14);

    RuntimeOptions opt;
    opt.guard.sampleFraction = 1.0;
    Runtime rt(a, cm, RuntimeOptions{});
    const std::string best = rt.tuning().best().name;
    opt.postComputeHook = [&](const std::string& kernel,
                              DenseMatrix& c) {
        if (kernel == best)
            c.at(0, 0) += 100.0f; // only the best kernel corrupts
    };
    Runtime rt2(a, cm, std::move(opt));

    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    rt2.run(b, c, &rep);
    EXPECT_NE(rep.kernel, best);
    EXPECT_EQ(rep.reexecs, 1);
    ASSERT_FALSE(rep.failures.empty());
    EXPECT_TRUE(rep.failures[0].guardMismatch);
    EXPECT_EQ(rep.failures[0].code, ErrorCode::CorruptData);
    expectCloseToReference(a, b, c);
    EXPECT_GE(
        obs::metrics::counterValue("runtime.guard.mismatches"), 1u);
    EXPECT_GE(obs::metrics::counterValue("runtime.guard.reexecs"),
              1u);
    EXPECT_GE(obs::metrics::counterValue("runtime.guard.checks"), 2u);
}

TEST_F(RuntimeTest, GuardDisabledProbeIsOneAtomicLoad)
{
    // Functional half of the BM_RuntimeGuardOverhead acceptance: with
    // the guard disabled no rows are checked and no counters move.
    obs::metrics::reset();
    runtime::guard::setSampleFraction(0.0);
    CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 16, 15);
    Runtime rt(a, cm, RuntimeOptions{});
    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    rt.run(b, c, &rep);
    EXPECT_EQ(rep.guardRowsChecked, 0);
    EXPECT_EQ(obs::metrics::counterValue("runtime.guard.checks"), 0u);
    EXPECT_FALSE(runtime::guard::enabled());
}

TEST_F(RuntimeTest, TunedStateReuseSkipsReTuning)
{
    // The serving layer's amortization contract: tune() once, then
    // any number of Runtime constructions from the shared ranking
    // without the tuner (or its cost-model walk) running again.
    obs::metrics::reset();
    CsrMatrix a = genUniform(256, 6.0, rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 8, 77);

    const auto tuned =
        Runtime::tune(a, RuntimeOptions{}.tune, cm);
    EXPECT_EQ(obs::metrics::counterValue("tuner.tunes"), 1u);
    const uint64_t evaluated = obs::metrics::counterValue(
        "tuner.candidates_evaluated");

    Runtime rt1(a, tuned, RuntimeOptions{});
    Runtime rt2(a, tuned, RuntimeOptions{});
    DenseMatrix c1(a.rows(), b.cols());
    DenseMatrix c2(a.rows(), b.cols());
    rt1.run(b, c1);
    rt2.run(b, c2);

    EXPECT_EQ(obs::metrics::counterValue("tuner.tunes"), 1u);
    EXPECT_EQ(
        obs::metrics::counterValue("tuner.candidates_evaluated"),
        evaluated);
    EXPECT_TRUE(c1 == c2);
    EXPECT_EQ(rt1.tunedState().get(), tuned.get());
    expectCloseToReference(a, b, c1);

    // A null tuned state is a caller bug, reported typed.
    EXPECT_THROW(Runtime(a, nullptr, RuntimeOptions{}), DtcError);
}

TEST_F(RuntimeTest, GuardSampleEnvKnobIsValidated)
{
    ASSERT_EQ(setenv("DTC_GUARD_SAMPLE", "0.5", 1), 0);
    runtime::guard::setSampleFraction(-1.0); // re-resolve from env
    EXPECT_TRUE(runtime::guard::enabled());
    EXPECT_EQ(runtime::guard::sampleFraction(), 0.5);

    ASSERT_EQ(setenv("DTC_GUARD_SAMPLE", "lots", 1), 0);
    runtime::guard::setSampleFraction(-1.0);
    EXPECT_THROW(runtime::guard::sampleFraction(), DtcError);
    ASSERT_EQ(unsetenv("DTC_GUARD_SAMPLE"), 0);
    runtime::guard::setSampleFraction(-1.0);
    EXPECT_EQ(runtime::guard::sampleFraction(), 0.01); // default
}

/** Byte-for-byte equality of shape and contents. */
bool
bitwiseEqual(const DenseMatrix& x, const DenseMatrix& y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
               0;
}

/** A graph on which DTC-SpMM wins an iterative tune. */
CsrMatrix
dtcWinningGraph(Rng& rng)
{
    return shuffleLabels(genCommunity(2048, 16, 24.0, 0.9, rng), rng);
}

RuntimeOptions
iterativeOptions()
{
    RuntimeOptions opt;
    opt.tune.iterations = 5000;
    return opt;
}

TEST_F(RuntimeTest, TuneAndFirstRunPrepareTheWinnerOnce)
{
    // The tuner prepared DTC to cost it; the runtime adopts that
    // kernel instead of converting the matrix again.
    const CsrMatrix a = dtcWinningGraph(rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 32, 5);
    obs::metrics::reset();
    Runtime rt(a, cm, iterativeOptions());
    ASSERT_EQ(rt.tuning().best().kind, KernelKind::Dtc);
    ASSERT_NE(rt.tuning().best().kernel, nullptr);
    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    rt.run(b, c, &rep);
    EXPECT_EQ(rep.kernel, rt.tuning().best().name);
    EXPECT_TRUE(rep.failures.empty());
    EXPECT_EQ(obs::metrics::counterValue("dtc.prepares"), 1u);

    auto own = makeKernel(KernelKind::Dtc);
    ASSERT_TRUE(own->prepare(a).ok());
    DenseMatrix want(a.rows(), b.cols());
    own->compute(b, want);
    EXPECT_TRUE(bitwiseEqual(c, want));
}

TEST_F(RuntimeTest, TunedKernelIsNotAdoptedAtAnotherPrecision)
{
    // A ranking tuned at native precision carries a Tf32 DTC kernel;
    // a Bf16 runtime must prepare its own instead of adopting it.
    const CsrMatrix a = dtcWinningGraph(rng);
    const DenseMatrix b = testing::makeDenseOperand(a.cols(), 24, 6);
    const RuntimeOptions base = iterativeOptions();
    const auto tuned = Runtime::tune(a, base.tune, cm);
    ASSERT_EQ(tuned->best().kind, KernelKind::Dtc);
    ASSERT_EQ(tuned->best().precision, Precision::Tf32);
    ASSERT_NE(tuned->best().kernel, nullptr);

    RuntimeOptions opt = base;
    opt.precision = Precision::Bf16;
    Runtime rt(a, tuned, opt);
    DenseMatrix c(a.rows(), b.cols());
    RunReport rep;
    rt.run(b, c, &rep);
    EXPECT_EQ(rep.precision, Precision::Bf16);
    DenseMatrix want(a.rows(), b.cols());
    referenceSpmmRounded(a, b, want, Precision::Bf16);
    EXPECT_TRUE(bitwiseEqual(c, want));
}

TEST_F(RuntimeTest, RuntimesSharingOneTuneResultRunConcurrently)
{
    // Both runtimes adopt the same prepared kernel; compute() is
    // const, so two threads may call it at once.
    const CsrMatrix a = dtcWinningGraph(rng);
    const RuntimeOptions opt = iterativeOptions();
    const auto tuned = Runtime::tune(a, opt.tune, cm);
    ASSERT_NE(tuned->best().kernel, nullptr);
    constexpr int kRuns = 6;
    std::vector<DenseMatrix> bs, want;
    for (int i = 0; i < kRuns; ++i) {
        bs.push_back(testing::makeDenseOperand(
            a.cols(), 16, 40 + static_cast<uint64_t>(i)));
        want.emplace_back(a.rows(), 16);
        referenceSpmmRounded(a, bs.back(), want.back(), Precision::Tf32);
    }
    Runtime rt1(a, tuned, opt);
    Runtime rt2(a, tuned, opt);
    bool ok1 = true, ok2 = true;
    auto drive = [&](Runtime& rt, bool& ok) {
        for (int i = 0; i < kRuns; ++i) {
            RunReport rep;
            DenseMatrix c(a.rows(), 16);
            rt.run(bs[i], c, &rep);
            ok = ok && rep.failures.empty() &&
                 rep.kernel == tuned->best().name &&
                 bitwiseEqual(c, want[i]);
        }
    };
    std::thread t1([&] { drive(rt1, ok1); });
    std::thread t2([&] { drive(rt2, ok2); });
    t1.join();
    t2.join();
    EXPECT_TRUE(ok1);
    EXPECT_TRUE(ok2);
}

} // namespace
} // namespace dtc
