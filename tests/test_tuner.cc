/**
 * @file
 * Unit tests for the conversion cost models and the input-adaptive
 * kernel tuner: Section 6 overhead relationships (GPU conversion
 * within a handful of SpMMs, orders faster than TC-GNN's CPU pass)
 * and amortization-aware kernel choice.
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "datasets/generators.h"
#include "formats/convert_cost.h"
#include "kernels/dtc.h"
#include "tuner/tuner.h"

namespace dtc {
namespace {

class TunerTest : public ::testing::Test
{
  protected:
    CostModel cm{ArchSpec::rtx4090()};
    Rng rng{99};
};

TEST_F(TunerTest, GpuConversionCostsFewSpmms)
{
    // Paper Section 6: ME-TCF conversion is 1.48x-14.5x of one SpMM.
    CsrMatrix m = genCommunity(8192, 16, 40.0, 0.85, rng);
    DtcKernel kernel;
    ASSERT_EQ(kernel.prepare(m), "");
    const double spmm = kernel.cost(128, cm).timeMs;
    const double conv = meTcfConversionCost(m, cm).timeMs;
    EXPECT_GT(conv, 0.2 * spmm);
    EXPECT_LT(conv, 30.0 * spmm);
}

TEST_F(TunerTest, GpuConversionFarFasterThanTcgnnCpu)
{
    // Paper Section 6: 101x/72x faster than TC-GNN's conversion.
    CsrMatrix m = genCommunity(8192, 16, 40.0, 0.85, rng);
    const double gpu = meTcfConversionCost(m, cm).timeMs;
    const double cpu = tcgnnCpuConversionMs(m);
    EXPECT_GT(cpu / gpu, 20.0);
    EXPECT_LT(cpu / gpu, 500.0);
}

TEST_F(TunerTest, ConversionScalesWithNnz)
{
    CsrMatrix small = genUniform(2048, 8.0, rng);
    CsrMatrix big = genUniform(16384, 16.0, rng);
    EXPECT_LT(meTcfConversionCost(small, cm).timeMs,
              meTcfConversionCost(big, cm).timeMs);
    EXPECT_LT(tcgnnCpuConversionMs(small),
              tcgnnCpuConversionMs(big));
}

TEST_F(TunerTest, RanksSupportedFirstAndSorted)
{
    CsrMatrix m = genUniform(4096, 12.0, rng);
    TuneRequest req;
    TuneResult res = tuneSpmm(m, req, cm);
    ASSERT_FALSE(res.entries.empty());
    bool seen_unsupported = false;
    double prev = 0.0;
    for (const TuneEntry& e : res.entries) {
        if (!e.supported) {
            seen_unsupported = true;
            continue;
        }
        EXPECT_FALSE(seen_unsupported); // supported block first
        EXPECT_GE(e.amortizedMs, prev);
        prev = e.amortizedMs;
    }
}

TEST_F(TunerTest, DtcWinsIterativeWorkloads)
{
    // GNN-style graph, thousands of iterations: conversion
    // amortizes and the fastest kernel (DTC) wins.
    CsrMatrix m = shuffleLabels(
        genCommunity(8192, 32, 40.0, 0.9, rng), rng);
    TuneRequest req;
    req.iterations = 5000;
    TuneResult res = tuneSpmm(m, req, cm);
    EXPECT_EQ(res.best().kind, KernelKind::Dtc);
}

TEST_F(TunerTest, SingleShotPenalizesHeavyConversion)
{
    // With one execution, conversion cost dominates: a zero-
    // conversion kernel must beat any kernel whose conversion alone
    // exceeds the cuSPARSE execution.
    CsrMatrix m = genUniform(8192, 12.0, rng);
    TuneRequest req;
    req.iterations = 1;
    TuneResult res = tuneSpmm(m, req, cm);
    const TuneEntry& best = res.best();
    for (const TuneEntry& e : res.entries) {
        if (e.supported) {
            EXPECT_LE(best.amortizedMs, e.amortizedMs);
        }
    }
    // TCGNN (CPU conversion, minutes-scale) must never win one-shot.
    EXPECT_NE(best.kind, KernelKind::Tcgnn);
}

TEST_F(TunerTest, CustomCandidateList)
{
    CsrMatrix m = genUniform(1024, 8.0, rng);
    TuneRequest req;
    req.candidates = {KernelKind::CuSparse, KernelKind::Sputnik};
    TuneResult res = tuneSpmm(m, req, cm);
    EXPECT_EQ(res.entries.size(), 2u);
}

int64_t
SpartaKernelDims()
{
    return 6000; // above SparTA's scaled dimension limit
}

TEST_F(TunerTest, UnsupportedCandidatesCarryReason)
{
    CsrMatrix m = genUniform(SpartaKernelDims(), 2.0, rng);
    TuneRequest req;
    req.candidates = {KernelKind::SparTA, KernelKind::CuSparse};
    TuneResult res = tuneSpmm(m, req, cm);
    bool found = false;
    for (const TuneEntry& e : res.entries) {
        if (e.kind == KernelKind::SparTA) {
            EXPECT_FALSE(e.supported);
            EXPECT_FALSE(e.reason.empty());
            // The skip carries the taxonomy code, not just a string.
            EXPECT_EQ(e.refusal, ErrorCode::Unsupported);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(res.best().kind, KernelKind::CuSparse);
    EXPECT_FALSE(res.fallbackAppended);
}

TEST_F(TunerTest, RejectsBadRequest)
{
    CsrMatrix m = genUniform(64, 4.0, rng);
    TuneRequest req;
    req.iterations = 0;
    EXPECT_THROW(tuneSpmm(m, req, cm), std::invalid_argument);
}

TEST_F(TunerTest, OnlyTheBestEntryKeepsItsPreparedKernel)
{
    CsrMatrix m = genCommunity(2048, 16, 16.0, 0.85, rng);
    TuneResult res = tuneSpmm(m, TuneRequest{}, cm);
    ASSERT_TRUE(res.entries.front().supported);
    ASSERT_NE(res.entries.front().kernel, nullptr);
    EXPECT_TRUE(res.entries.front().kernel->prepared());
    EXPECT_EQ(res.entries.front().kernel->name(),
              makeKernel(res.entries.front().kind)->name());
    for (size_t i = 1; i < res.entries.size(); ++i)
        EXPECT_EQ(res.entries[i].kernel, nullptr) << res.entries[i].name;
    for (const TuneEntry& e : res.entries)
        EXPECT_EQ(e.precision, kernelTraits(e.kind).nativePrecision)
            << e.name;
}

TEST_F(TunerTest, RequestedPrecisionRefusesKindsThatCannotRunIt)
{
    CsrMatrix m = genCommunity(2048, 16, 16.0, 0.85, rng);
    const TuneResult tf32 =
        tuneSpmm(m, TuneRequest{}, cm, Precision::Tf32);
    const TuneResult fp32 =
        tuneSpmm(m, TuneRequest{}, cm, Precision::Fp32);
    for (const TuneResult* res : {&tf32, &fp32}) {
        const Precision p = res == &tf32 ? Precision::Tf32
                                         : Precision::Fp32;
        ASSERT_EQ(res->entries.size(), defaultTuneCandidates().size());
        for (const TuneEntry& e : res->entries) {
            SCOPED_TRACE(e.name);
            EXPECT_EQ(e.precision, p);
            // DTC's kinds express every precision but refuse Fp32
            // in prepare(); the rest run their native one only.
            const bool runs =
                kernelTraits(e.kind).precisionConfigurable
                    ? p != Precision::Fp32
                    : kernelTraits(e.kind).nativePrecision == p;
            EXPECT_EQ(e.supported, runs);
            if (!runs) {
                EXPECT_EQ(e.refusal, ErrorCode::Unsupported);
            }
        }
        EXPECT_NE(res->best().kernel, nullptr);
    }
    EXPECT_EQ(tf32.supportedEntries().size(), 2u); // DTC, TC-GNN
    EXPECT_EQ(fp32.supportedEntries().size(), 3u); // CUDA-core kinds

    // An Fp32 request whose only candidate is Tf32-only refuses
    // everything; the Fp32 cuSPARSE fallback serves it.
    TuneRequest only_tcgnn;
    only_tcgnn.candidates = {KernelKind::Tcgnn};
    const TuneResult fb =
        tuneSpmm(m, only_tcgnn, cm, Precision::Fp32);
    EXPECT_TRUE(fb.fallbackAppended);
    EXPECT_EQ(fb.best().kind, KernelKind::CuSparse);
    EXPECT_NE(fb.best().kernel, nullptr);
}

} // namespace
} // namespace dtc
