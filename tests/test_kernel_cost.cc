/**
 * @file
 * Behavioural tests of the kernel cost models: the relationships the
 * paper establishes (Observations 1-4 and the Section 5 breakdowns)
 * must hold on this simulator — TCGNN's quadratic FetchSparse blowing
 * up #IMAD/#HMMA on long rows, DTC beating TCGNN everywhere, ablation
 * flags each helping, strict balance fixing skew, reordering helping.
 */
#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"
#include "datasets/generators.h"
#include "datasets/table1.h"
#include "kernels/dtc.h"
#include "kernels/kernel.h"
#include "tuner/tuner.h"

namespace dtc {
namespace {

LaunchResult
runCost(KernelKind kind, const CsrMatrix& a, int64_t n,
        const CostModel& cm)
{
    auto kernel = makeKernel(kind);
    const std::string err = kernel->prepare(a);
    if (!err.empty())
        return LaunchResult::unsupported(kernel->name(), err);
    return kernel->cost(n, cm);
}

class KernelCostTest : public ::testing::Test
{
  protected:
    CostModel cm{ArchSpec::rtx4090()};
    Rng rng{2024};
};

TEST_F(KernelCostTest, TcgnnImadHmmaExplodesOnLongRows)
{
    CsrMatrix short_rows = genUniform(4096, 4.0, rng);
    CsrMatrix long_rows = genUniform(2048, 400.0, rng);
    auto r_short = runCost(KernelKind::Tcgnn, short_rows, 128, cm);
    auto r_long = runCost(KernelKind::Tcgnn, long_rows, 128, cm);
    // Observation 3 / Table 2: Type I sits around 13-15, Type II far
    // higher.
    EXPECT_GT(r_short.imadPerHmma, 8.0);
    EXPECT_LT(r_short.imadPerHmma, 25.0);
    EXPECT_GT(r_long.imadPerHmma, 2.0 * r_short.imadPerHmma);
}

TEST_F(KernelCostTest, TcgnnTcUtilizationUnderEightPercent)
{
    for (const char* abbr : {"YH", "DD"}) {
        CsrMatrix a = table1ByAbbr(abbr).make();
        auto r = runCost(KernelKind::Tcgnn, a, 128, cm);
        EXPECT_LT(r.tcUtilPct, 8.0) << abbr;
        EXPECT_GT(r.tcUtilPct, 0.5) << abbr;
    }
}

TEST_F(KernelCostTest, DtcUtilizationBeatsTcgnn)
{
    CsrMatrix a = genCommunity(4096, 16, 60.0, 0.8, rng);
    auto tcgnn = runCost(KernelKind::Tcgnn, a, 128, cm);
    auto dtc = runCost(KernelKind::DtcBase, a, 128, cm);
    EXPECT_GT(dtc.tcUtilPct, tcgnn.tcUtilPct);
    EXPECT_LT(dtc.imadPerHmma, tcgnn.imadPerHmma);
}

TEST_F(KernelCostTest, DtcFasterThanTcgnnEverywhere)
{
    // Table 3: DTC achieves speedups over TCGNN on ALL matrices.
    for (int which = 0; which < 4; ++which) {
        CsrMatrix a =
            which == 0   ? genUniform(16384, 8.0, rng)
            : which == 1 ? genPowerLaw(16384, 16.0, 1.3, rng)
            : which == 2 ? genCommunity(16384, 32, 100.0, 0.8, rng)
                         : genBanded(16384, 32, 12.0, rng);
        auto tcgnn = runCost(KernelKind::Tcgnn, a, 128, cm);
        auto dtc = runCost(KernelKind::Dtc, a, 128, cm);
        EXPECT_LT(dtc.timeMs, tcgnn.timeMs) << which;
    }
}

TEST_F(KernelCostTest, TcgnnLosesToCuSparseOnTypeII)
{
    CsrMatrix a = table1ByAbbr("ddi").make();
    auto tcgnn = runCost(KernelKind::Tcgnn, a, 128, cm);
    auto cusp = runCost(KernelKind::CuSparse, a, 128, cm);
    EXPECT_GT(tcgnn.timeMs, cusp.timeMs);
}

TEST_F(KernelCostTest, DtcBeatsCudaCoreBaselinesOnTypeII)
{
    CsrMatrix a = table1ByAbbr("ddi").make();
    auto dtc = runCost(KernelKind::Dtc, a, 128, cm);
    auto cusp = runCost(KernelKind::CuSparse, a, 128, cm);
    EXPECT_LT(dtc.timeMs, cusp.timeMs);
}

TEST_F(KernelCostTest, AblationFlagsEachImproveTime)
{
    CsrMatrix a = genCommunity(4096, 16, 80.0, 0.85, rng);
    auto costWith = [&](bool smb, bool ip, bool sdb, bool vfd) {
        DtcOptions o;
        o.smb = smb;
        o.ip = ip;
        o.sdb = sdb;
        o.vfd = vfd;
        o.mode = DtcOptions::Mode::Base;
        DtcKernel k(o);
        EXPECT_EQ(k.prepare(a), "");
        return k.cost(128, cm);
    };
    auto base = costWith(false, false, false, false);
    auto smb = costWith(true, false, false, false);
    auto ip = costWith(true, true, false, false);
    auto sdb = costWith(true, true, true, false);
    auto vfd = costWith(true, true, true, true);
    // Fig. 14: each added optimization raises TC pipe utilization.
    EXPECT_GT(smb.tcUtilPct, base.tcUtilPct);
    EXPECT_GT(ip.tcUtilPct, smb.tcUtilPct);
    EXPECT_GT(sdb.tcUtilPct, ip.tcUtilPct);
    EXPECT_GT(vfd.tcUtilPct, sdb.tcUtilPct);
    EXPECT_LT(vfd.timeMs, base.timeMs);
    // IP specifically cuts integer work.
    EXPECT_LT(ip.totalImad, smb.totalImad);
    // SMB removes the shared-memory round trip.
    EXPECT_LT(smb.totalSts, base.totalSts);
}

TEST_F(KernelCostTest, BalancedFixesSkewedWorkloads)
{
    // Skewed: a few windows hold almost all TC blocks.
    CsrMatrix a = genPowerLaw(8192, 60.0, 1.6, rng);
    auto base = runCost(KernelKind::DtcBase, a, 128, cm);
    auto bal = runCost(KernelKind::DtcBalanced, a, 128, cm);
    EXPECT_LT(bal.timeMs, base.timeMs);

    // Per-SM busy spread collapses under strict balance.
    auto spread = [](const LaunchResult& r) {
        double mx = 0.0, mn = 1e300;
        for (double b : r.smBusyCycles) {
            mx = std::max(mx, b);
            mn = std::min(mn, b);
        }
        return mx / std::max(mn, 1.0);
    };
    EXPECT_LT(spread(bal), spread(base));
}

TEST_F(KernelCostTest, BalancedCostsOverheadOnUniformWorkloads)
{
    // Paper Section 4.5.2: ~22% degradation on naturally balanced
    // matrices motivates the 1.2 AR threshold.  Needs a grid large
    // enough to saturate the device in base mode.
    CsrMatrix a = genUniform(24576, 24.0, rng);
    auto base = runCost(KernelKind::DtcBase, a, 128, cm);
    auto bal = runCost(KernelKind::DtcBalanced, a, 128, cm);
    EXPECT_GT(bal.timeMs, base.timeMs);
}

TEST_F(KernelCostTest, AutoModeNeverWorseThanWorstChoice)
{
    for (int which = 0; which < 2; ++which) {
        CsrMatrix a = which == 0
                          ? genUniform(4096, 24.0, rng)
                          : genPowerLaw(4096, 60.0, 1.6, rng);
        auto base = runCost(KernelKind::DtcBase, a, 128, cm);
        auto bal = runCost(KernelKind::DtcBalanced, a, 128, cm);
        auto autod = runCost(KernelKind::Dtc, a, 128, cm);
        EXPECT_LE(autod.timeMs,
                  std::max(base.timeMs, bal.timeMs) + 1e-12);
    }
}

TEST_F(KernelCostTest, FlashLlmPaysDenseComputeOnVerySparse)
{
    // >99.7% sparse: almost every 64x64 tile is nonempty but nearly
    // empty, so Load-as-Sparse-Compute-as-Dense wastes its FLOPs.
    CsrMatrix a = genCommunity(8192, 32, 24.0, 0.8, rng);
    auto fl = runCost(KernelKind::FlashLlmV1, a, 128, cm);
    auto dtc = runCost(KernelKind::Dtc, a, 128, cm);
    EXPECT_GT(fl.timeMs, 3.0 * dtc.timeMs);
}

TEST_F(KernelCostTest, FlashLlmCompetitiveOnDenseMatrices)
{
    // ddi-like density (~12%): Table 4 shows near parity.
    CsrMatrix a = genUniform(2048, 240.0, rng);
    auto fl = runCost(KernelKind::FlashLlmV1, a, 128, cm);
    auto dtc = runCost(KernelKind::Dtc, a, 128, cm);
    EXPECT_LT(fl.timeMs, 4.0 * dtc.timeMs);
}

TEST_F(KernelCostTest, BlockSpmmWastesFlopsOnUnstructured)
{
    CsrMatrix a = genPowerLaw(4096, 10.0, 1.3, rng);
    auto blk = runCost(KernelKind::BlockSpmm32, a, 128, cm);
    auto dtc = runCost(KernelKind::Dtc, a, 128, cm);
    ASSERT_TRUE(blk.supported);
    EXPECT_GT(blk.timeMs, dtc.timeMs);
}

TEST_F(KernelCostTest, SputnikBeatsCuSparseOnSkew)
{
    CsrMatrix a = genPowerLaw(8192, 24.0, 1.5, rng);
    auto sp = runCost(KernelKind::Sputnik, a, 128, cm);
    auto cu = runCost(KernelKind::CuSparse, a, 128, cm);
    EXPECT_LT(sp.timeMs, cu.timeMs);
}

TEST_F(KernelCostTest, TimeScalesWithDenseWidth)
{
    CsrMatrix a = genUniform(2048, 16.0, rng);
    auto r128 = runCost(KernelKind::Dtc, a, 128, cm);
    auto r512 = runCost(KernelKind::Dtc, a, 512, cm);
    EXPECT_GT(r512.timeMs, 2.0 * r128.timeMs);
    EXPECT_LT(r512.timeMs, 8.0 * r128.timeMs);
}

TEST_F(KernelCostTest, Rtx3090SlowerThan4090)
{
    CsrMatrix a = genCommunity(4096, 16, 60.0, 0.8, rng);
    CostModel cm3090{ArchSpec::rtx3090()};
    auto r40 = runCost(KernelKind::Dtc, a, 128, cm);
    auto r30 = runCost(KernelKind::Dtc, a, 128, cm3090);
    EXPECT_GT(r30.timeMs, r40.timeMs);
}

TEST_F(KernelCostTest, ReorderingImprovesDtcThroughput)
{
    // Hidden community structure, shuffled away; grouping similar
    // rows back together must speed DTC up (Fig. 13b).
    CsrMatrix structured = genCommunity(4096, 64, 60.0, 0.95, rng);
    CsrMatrix shuffled = shuffleLabels(structured, rng);
    auto before = runCost(KernelKind::DtcBase, shuffled, 128, cm);
    auto after = runCost(KernelKind::DtcBase, structured, 128, cm);
    EXPECT_LT(after.timeMs, before.timeMs);
}

TEST_F(KernelCostTest, SequentialAccessPaysWarpTranspose)
{
    // Paper Section 4.4.1 / Fig. 8b: sequential access needs a
    // shfl-based warp transpose; strided access avoids it.
    CsrMatrix a = genCommunity(8192, 16, 40.0, 0.85, rng);
    DtcOptions strided;
    strided.mode = DtcOptions::Mode::Base;
    DtcKernel ks(strided);
    ASSERT_EQ(ks.prepare(a), "");
    DtcOptions sequential = strided;
    sequential.sequentialAccess = true;
    DtcKernel kq(sequential);
    ASSERT_EQ(kq.prepare(a), "");
    EXPECT_GT(kq.cost(128, cm).timeMs, ks.cost(128, cm).timeMs);
}

TEST_F(KernelCostTest, L2HitRateReported)
{
    CsrMatrix a = genCommunity(2048, 8, 60.0, 0.9, rng);
    auto r = runCost(KernelKind::Dtc, a, 128, cm);
    EXPECT_GT(r.l2HitRate, 0.0);
    EXPECT_LE(r.l2HitRate, 1.0);
}

TEST_F(KernelCostTest, DefaultCandidateTimesMatchRecordedBits)
{
    // Every default tuner candidate's simulated launch time, bit for
    // bit, on two matrices.  The values were recorded with the
    // single-pass L2 lookup; a lookup that changed any hit/miss would
    // move the hit rate and with it the time.
    Rng mrng(31);
    const CsrMatrix mats[] = {
        genPowerLaw(3000, 12.0, 1.1, mrng),
        genCommunity(2048, 16, 16.0, 0.85, mrng),
    };
    const uint64_t want[2][5] = {
        {0x3f853ae859d66ba0ull, 0x3f9594133f066b8bull,
         0x3f8b2df432efeb61ull, 0x3f923a018b70cfbaull,
         0x3fa86029e1c00db2ull},
        {0x3f787a0a3270c466ull, 0x3f8a7eb836df6e30ull,
         0x3f859267b78187f4ull, 0x3f8896d74f572359ull,
         0x3f8bc23402ce4084ull},
    };
    const std::vector<KernelKind> kinds = defaultTuneCandidates();
    ASSERT_EQ(kinds.size(), 5u);
    for (size_t i = 0; i < 2; ++i) {
        for (size_t k = 0; k < kinds.size(); ++k) {
            const LaunchResult r = runCost(kinds[k], mats[i], 128, cm);
            ASSERT_TRUE(r.supported) << kernelKindName(kinds[k]);
            EXPECT_EQ(std::bit_cast<uint64_t>(r.timeMs), want[i][k])
                << "matrix " << i << " " << kernelKindName(kinds[k])
                << " " << r.timeMs;
        }
    }
}

} // namespace
} // namespace dtc
