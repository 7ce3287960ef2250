/**
 * @file
 * Unit tests for the GPU execution-model simulator: scheduler policy
 * (Eq. 1), slot-based scheduling, L2 cache model, cost-model
 * arithmetic.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "gpusim/arch.h"
#include "gpusim/cost_model.h"
#include "gpusim/l2cache.h"
#include "gpusim/scheduler.h"

namespace dtc {
namespace {

TEST(Arch, FactoryValues)
{
    ArchSpec a = ArchSpec::rtx4090();
    EXPECT_EQ(a.numSms, 128);
    EXPECT_EQ(a.occupancy, 6);
    EXPECT_DOUBLE_EQ(a.hmmaLatencyCycles, 16.0);
    ArchSpec b = ArchSpec::rtx3090();
    EXPECT_EQ(b.numSms, 82);
    EXPECT_LT(b.l2Bytes, a.l2Bytes);
    EXPECT_LT(b.tcMacsPerCycle, a.tcMacsPerCycle);
}

TEST(Arch, DerivedRates)
{
    ArchSpec a = ArchSpec::rtx4090();
    EXPECT_DOUBLE_EQ(a.cyclesPerHmma(), 512.0 / 256.0);
    EXPECT_NEAR(a.dramBytesPerCycle(), 1008.0 / 2.52, 1e-9);
}

TEST(Scheduler, PolicyMatchesPaperEquation)
{
    // Eq. 1 with 128 SMs: sm = 2*(b mod 64) + (b/64) mod 2.
    for (int64_t b = 0; b < 512; ++b) {
        EXPECT_EQ(schedulerPolicySm(b, 128),
                  2 * (b % 64) + (b / 64) % 2);
    }
}

TEST(Scheduler, PolicyFirstWaveCoversAllSms)
{
    std::vector<bool> hit(128, false);
    for (int64_t b = 0; b < 128; ++b)
        hit[schedulerPolicySm(b, 128)] = true;
    for (bool h : hit)
        EXPECT_TRUE(h);
}

TEST(Scheduler, UniformBlocksBalance)
{
    std::vector<double> tbs(1280, 100.0);
    ScheduleResult r = scheduleThreadBlocks(tbs, 128, 6);
    // 1280 equal blocks over 128 SMs: 1000 busy cycles each.
    for (double busy : r.smBusyCycles)
        EXPECT_NEAR(busy, 1000.0, 1e-6);
    // 768 slots, 1280 blocks: the fullest slot runs 2 blocks.
    EXPECT_NEAR(r.makespanCycles, 200.0, 1e-6);
}

TEST(Scheduler, MakespanAtLeastCriticalPath)
{
    std::vector<double> tbs{5000.0, 1.0, 1.0, 1.0};
    ScheduleResult r = scheduleThreadBlocks(tbs, 4, 2);
    EXPECT_GE(r.makespanCycles, 5000.0);
}

TEST(Scheduler, SkewedBlocksLeaveSmsIdle)
{
    // One giant block, many tiny: the giant block's SM dominates.
    std::vector<double> tbs(256, 10.0);
    tbs[0] = 100000.0;
    ScheduleResult r = scheduleThreadBlocks(tbs, 128, 6);
    EXPECT_NEAR(r.makespanCycles, 100000.0, 1000.0);
    // Most SMs are nearly idle relative to the makespan.
    int idle = 0;
    for (double busy : r.smBusyCycles)
        if (busy < 0.01 * r.makespanCycles)
            idle++;
    EXPECT_GT(idle, 100);
}

TEST(Scheduler, WorkConserving)
{
    std::vector<double> tbs;
    for (int i = 0; i < 1000; ++i)
        tbs.push_back(10.0 + (i % 7) * 3.0);
    ScheduleResult r = scheduleThreadBlocks(tbs, 16, 4);
    const double total =
        std::accumulate(tbs.begin(), tbs.end(), 0.0);
    double busy = 0.0;
    for (double b : r.smBusyCycles)
        busy += b;
    EXPECT_NEAR(busy, total, 1e-6);
    // Perfect packing bound: makespan >= total / (SMs * occupancy).
    EXPECT_GE(r.makespanCycles * 16.0 * 4.0, total - 1e-6);
}

TEST(Scheduler, TbToSmRecordsAssignment)
{
    std::vector<double> tbs(64, 5.0);
    ScheduleResult r = scheduleThreadBlocks(tbs, 8, 2);
    ASSERT_EQ(r.tbToSm.size(), tbs.size());
    for (int sm : r.tbToSm) {
        EXPECT_GE(sm, 0);
        EXPECT_LT(sm, 8);
    }
}

TEST(L2Cache, HitsOnRepeat)
{
    L2Cache c(1 << 16, 4, 64);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(32)); // same line
    EXPECT_EQ(c.hits(), 2);
    EXPECT_EQ(c.misses(), 1);
}

TEST(L2Cache, EvictsLruWithinSet)
{
    // 2-way, force 3 lines into one set.
    L2Cache c(2 * 64, 2, 64); // 1 set, 2 ways
    EXPECT_EQ(c.numSets(), 1);
    c.access(0);
    c.access(64);
    c.access(128); // evicts line 0
    EXPECT_FALSE(c.access(0));
}

TEST(L2Cache, LruKeepsRecentlyUsed)
{
    L2Cache c(2 * 64, 2, 64);
    c.access(0);
    c.access(64);
    c.access(0);   // refresh line 0
    c.access(128); // should evict line 64, not 0
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(64));
}

TEST(L2Cache, WorkingSetWithinCapacityAllHits)
{
    L2Cache c(1 << 20, 16, 128);
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t line = 0; line < 1000; ++line)
            c.accessLine(line);
    // First pass misses, later passes hit.
    EXPECT_EQ(c.misses(), 1000);
    EXPECT_EQ(c.hits(), 2000);
}

TEST(L2Cache, ResetClears)
{
    L2Cache c(1 << 16, 4, 64);
    c.access(0);
    c.access(0);
    c.reset();
    EXPECT_EQ(c.hits(), 0);
    EXPECT_FALSE(c.access(0));
}

/**
 * The single-pass set lookup L2Cache::access used before its
 * hit-first scan, kept verbatim as the oracle for the hit/miss
 * sequence: one loop that looks for the tag and picks the victim
 * (first empty way, else the first least-recently-used one) as it
 * goes.
 */
class SinglePassL2
{
  public:
    SinglePassL2(int64_t sets, int ways, int64_t line_bytes)
        : lineBytes(line_bytes), nWays(ways), nSets(sets),
          tags(static_cast<size_t>(sets) * ways, kInvalid),
          lastUse(tags.size(), 0)
    {
    }

    bool
    access(uint64_t addr)
    {
        tick++;
        const uint64_t line = addr / static_cast<uint64_t>(lineBytes);
        const uint64_t set = line & static_cast<uint64_t>(nSets - 1);
        const size_t base = static_cast<size_t>(set) * nWays;
        int victim = 0;
        uint64_t victim_use = ~0ull;
        for (int w = 0; w < nWays; ++w) {
            if (tags[base + w] == line) {
                lastUse[base + w] = tick;
                return true;
            }
            if (tags[base + w] == kInvalid) {
                if (victim_use != 0) {
                    victim = w;
                    victim_use = 0;
                }
            } else if (lastUse[base + w] < victim_use) {
                victim = w;
                victim_use = lastUse[base + w];
            }
        }
        tags[base + victim] = line;
        lastUse[base + victim] = tick;
        return false;
    }

  private:
    static constexpr uint64_t kInvalid = ~0ull;
    int64_t lineBytes;
    int nWays;
    int64_t nSets;
    uint64_t tick = 0;
    std::vector<uint64_t> tags;
    std::vector<uint64_t> lastUse;
};

TEST(L2Cache, HitFirstLookupMatchesSinglePassSequence)
{
    // Streams over footprints below, near and far above capacity:
    // sets fill, thrash, and re-hit lines that survived.  Each access
    // must hit or miss exactly as the single-pass lookup does.
    struct Shape
    {
        int64_t capacity;
        int ways;
        int64_t lineBytes;
    };
    const Shape shapes[] = {{64 * 64, 4, 64},
                            {16 * 128 * 8, 16, 128},
                            {3 * 64, 3, 64},
                            {1 << 14, 1, 64}};
    Rng rng(2718);
    for (const Shape& sh : shapes) {
        L2Cache cache(sh.capacity, sh.ways, sh.lineBytes);
        SinglePassL2 oracle(cache.numSets(), sh.ways, sh.lineBytes);
        const uint64_t lines = static_cast<uint64_t>(
            cache.numSets() * sh.ways);
        int64_t hits = 0;
        for (uint64_t footprint :
             {lines / 2, lines, lines + lines / 4, 4 * lines}) {
            for (int i = 0; i < 20000; ++i) {
                // Mostly uniform over the footprint, with a hot
                // head that keeps re-hitting.
                const uint64_t line =
                    rng.nextBounded(4) == 0
                        ? rng.nextBounded(std::max<uint64_t>(
                              1, footprint / 16))
                        : rng.nextBounded(footprint);
                const uint64_t addr =
                    line * static_cast<uint64_t>(sh.lineBytes) +
                    rng.nextBounded(static_cast<uint64_t>(
                        sh.lineBytes));
                const bool want = oracle.access(addr);
                ASSERT_EQ(cache.access(addr), want)
                    << "ways " << sh.ways << " access " << i;
                hits += want ? 1 : 0;
            }
        }
        EXPECT_EQ(cache.hits(), hits);
        EXPECT_GT(cache.hits(), 0);
        EXPECT_GT(cache.misses(), 0);
    }
}

TEST(CostModel, MoreWorkMoreCycles)
{
    CostModel cm(ArchSpec::rtx4090());
    TbWork small, big;
    small.hmma = 10;
    big.hmma = 1000;
    EXPECT_LT(cm.tbCycles(small), cm.tbCycles(big));
}

TEST(CostModel, OverlapReducesCycles)
{
    CostModel cm(ArchSpec::rtx4090());
    TbWork serial, overlapped;
    serial.hmma = overlapped.hmma = 100;
    serial.imad = overlapped.imad = 400;
    serial.bytesDram = overlapped.bytesDram = 1e5;
    serial.execSerialFrac = 1.0;
    serial.memSerialFrac = 1.0;
    overlapped.execSerialFrac = 0.3;
    overlapped.memSerialFrac = 0.3;
    EXPECT_LT(cm.tbCycles(overlapped), cm.tbCycles(serial));
}

TEST(CostModel, LaunchAggregatesCounters)
{
    CostModel cm(ArchSpec::rtx4090());
    std::vector<TbWork> tbs(10);
    for (auto& w : tbs) {
        w.hmma = 5;
        w.imad = 50;
    }
    LaunchResult r = cm.launch("k", tbs, 1e6, 0.5);
    EXPECT_DOUBLE_EQ(r.totalHmma, 50.0);
    EXPECT_DOUBLE_EQ(r.totalImad, 500.0);
    EXPECT_DOUBLE_EQ(r.imadPerHmma, 10.0);
    EXPECT_DOUBLE_EQ(r.l2HitRate, 0.5);
    EXPECT_GT(r.timeMs, 0.0);
    EXPECT_GT(r.gflops(), 0.0);
}

TEST(CostModel, UtilizationBetweenZeroAndHundred)
{
    CostModel cm(ArchSpec::rtx4090());
    std::vector<TbWork> tbs(500);
    for (auto& w : tbs) {
        w.hmma = 100;
        w.imad = 10;
        w.execSerialFrac = 0.0;
        w.memSerialFrac = 0.0;
        w.fixedCycles = 0.0;
    }
    LaunchResult r = cm.launch("k", tbs, 1.0, 0.0);
    EXPECT_GT(r.tcUtilPct, 0.0);
    EXPECT_LE(r.tcUtilPct, 100.0 + 1e-9);
}

TEST(CostModel, UnsupportedMarker)
{
    LaunchResult r = LaunchResult::unsupported("X", "because");
    EXPECT_FALSE(r.supported);
    EXPECT_EQ(r.unsupportedReason, "because");
}

} // namespace
} // namespace dtc
