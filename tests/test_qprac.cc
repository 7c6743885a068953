/**
 * @file
 * Unit tests for the QPRAC mitigation engine (paper §III).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/qprac.h"
#include "dram/prac_counters.h"

using namespace qprac;
using core::ProactiveMode;
using core::Qprac;
using core::QpracConfig;
using dram::PracCounters;
using dram::RfmScope;

namespace {

/** Drive ACTs through counters + mitigation together. */
ActCount
act(PracCounters& c, Qprac& q, int bank, int row, Cycle cycle = 0)
{
    ActCount n = c.onActivate(bank, row);
    q.onActivate(bank, row, n, cycle);
    return n;
}

} // namespace

TEST(QpracConfigTest, PresetLabels)
{
    EXPECT_EQ(QpracConfig::noOp().label(), "QPRAC-NoOp");
    EXPECT_EQ(QpracConfig::base().label(), "QPRAC");
    EXPECT_EQ(QpracConfig::proactiveEvery().label(), "QPRAC+Proactive");
    EXPECT_EQ(QpracConfig::proactiveEa().label(), "QPRAC+Proactive-EA");
    EXPECT_EQ(QpracConfig::idealTopN().label(), "QPRAC-Ideal");
    EXPECT_EQ(QpracConfig::proactiveEa(32, 1).npro, 16); // NPRO = NBO/2
}

TEST(Qprac, AlertAssertedAtNbo)
{
    PracCounters ctrs(2, 256);
    Qprac q(QpracConfig::base(8, 1), &ctrs);
    for (int i = 0; i < 7; ++i)
        act(ctrs, q, 0, 100);
    EXPECT_FALSE(q.wantsAlert());
    act(ctrs, q, 0, 100); // count reaches NBO=8
    EXPECT_TRUE(q.wantsAlert());
    EXPECT_EQ(q.alertingBank(), 0);
}

TEST(Qprac, RfmMitigatesTopAndClearsAlert)
{
    PracCounters ctrs(1, 256);
    Qprac q(QpracConfig::base(8, 1), &ctrs);
    for (int i = 0; i < 8; ++i)
        act(ctrs, q, 0, 100);
    for (int i = 0; i < 5; ++i)
        act(ctrs, q, 0, 120);
    ASSERT_TRUE(q.wantsAlert());
    q.onRfm(0, RfmScope::AllBank, true, 0);
    EXPECT_FALSE(q.wantsAlert());
    EXPECT_EQ(ctrs.count(0, 100), 0u); // aggressor reset
    EXPECT_GT(ctrs.count(0, 120), 0u); // other row untouched
    EXPECT_EQ(q.stats().rfm_mitigations, 1u);
    // Blast-radius victims (BR=2 both sides) were refreshed.
    EXPECT_EQ(q.stats().victim_refreshes, 4u);
    EXPECT_EQ(ctrs.count(0, 99), 1u);
    EXPECT_EQ(ctrs.count(0, 101), 1u);
    EXPECT_EQ(ctrs.count(0, 98), 1u);
    EXPECT_EQ(ctrs.count(0, 102), 1u);
}

TEST(Qprac, NoOpSkipsNonAlertingBanks)
{
    PracCounters ctrs(2, 256);
    Qprac q(QpracConfig::noOp(8, 1), &ctrs);
    for (int i = 0; i < 8; ++i)
        act(ctrs, q, 0, 10);
    for (int i = 0; i < 5; ++i)
        act(ctrs, q, 1, 20);
    // All-bank RFM: only the alerting bank (0) mitigates under NoOp.
    q.onRfm(0, RfmScope::AllBank, true, 0);
    q.onRfm(1, RfmScope::AllBank, false, 0);
    EXPECT_EQ(ctrs.count(0, 10), 0u);
    EXPECT_EQ(ctrs.count(1, 20), 5u); // untouched
}

TEST(Qprac, OpportunisticMitigatesAllBanks)
{
    PracCounters ctrs(2, 256);
    Qprac q(QpracConfig::base(8, 1), &ctrs);
    for (int i = 0; i < 8; ++i)
        act(ctrs, q, 0, 10);
    for (int i = 0; i < 5; ++i)
        act(ctrs, q, 1, 20);
    q.onRfm(0, RfmScope::AllBank, true, 0);
    q.onRfm(1, RfmScope::AllBank, false, 0);
    EXPECT_EQ(ctrs.count(0, 10), 0u);
    EXPECT_EQ(ctrs.count(1, 20), 0u); // mitigated below NBO (§III-D1)
}

TEST(Qprac, ProactiveEveryRefMitigatesRegardlessOfCount)
{
    PracCounters ctrs(1, 256);
    Qprac q(QpracConfig::proactiveEvery(32, 1), &ctrs);
    act(ctrs, q, 0, 50);
    q.onRefresh(0, 0);
    EXPECT_EQ(ctrs.count(0, 50), 0u);
    EXPECT_EQ(q.stats().proactive_mitigations, 1u);
}

TEST(Qprac, ProactiveEnergyAwareHonorsNpro)
{
    PracCounters ctrs(1, 256);
    QpracConfig cfg = QpracConfig::proactiveEa(32, 1); // NPRO = 16
    Qprac q(cfg, &ctrs);
    for (int i = 0; i < 15; ++i)
        act(ctrs, q, 0, 50);
    q.onRefresh(0, 0);
    EXPECT_EQ(q.stats().proactive_mitigations, 0u); // below NPRO
    act(ctrs, q, 0, 50);                            // now 16 = NPRO
    q.onRefresh(0, 0);
    EXPECT_EQ(q.stats().proactive_mitigations, 1u);
    EXPECT_EQ(ctrs.count(0, 50), 0u);
}

TEST(Qprac, ProactivePeriodSkipsRefs)
{
    PracCounters ctrs(1, 256);
    QpracConfig cfg = QpracConfig::proactiveEvery(32, 1);
    cfg.proactive_period_refs = 4; // 1 proactive per 4 tREFI (Fig 17/21)
    Qprac q(cfg, &ctrs);
    act(ctrs, q, 0, 50);
    q.onRefresh(0, 0);
    q.onRefresh(0, 0);
    q.onRefresh(0, 0);
    EXPECT_EQ(q.stats().proactive_mitigations, 0u);
    q.onRefresh(0, 0);
    EXPECT_EQ(q.stats().proactive_mitigations, 1u);
}

TEST(Qprac, VictimInsertionCoversTransitiveAttacks)
{
    // Half-Double style: mitigating an aggressor bumps victim counters,
    // and hot victims must enter the PSQ (paper §III-C2).
    PracCounters ctrs(1, 256);
    Qprac q(QpracConfig::base(8, 1), &ctrs);
    // Make row 101 hot (it will also be a victim of row 100).
    for (int i = 0; i < 6; ++i)
        act(ctrs, q, 0, 101);
    for (int i = 0; i < 8; ++i)
        act(ctrs, q, 0, 100);
    q.onRfm(0, RfmScope::AllBank, true, 0);
    // Victim 101 got +1 (now 7) and must still be tracked.
    EXPECT_EQ(ctrs.count(0, 101), 7u);
    EXPECT_TRUE(q.psq(0).contains(101));
    EXPECT_EQ(q.psq(0).countOf(101), 7u);
}

TEST(Qprac, IdealTracksTrueMaximum)
{
    PracCounters ctrs(1, 512);
    Qprac q(QpracConfig::idealTopN(64, 1), &ctrs);
    // More distinct hot rows than the PSQ could hold.
    for (int r = 0; r < 20; ++r)
        for (int i = 0; i < 10 + r; ++i)
            act(ctrs, q, 0, r * 8);
    EXPECT_EQ(q.topCount(0), 29u); // row 19*8 with 29 activations
    q.onRfm(0, RfmScope::AllBank, true, 0);
    EXPECT_EQ(ctrs.count(0, 19 * 8), 0u); // the true max was mitigated
    EXPECT_EQ(q.topCount(0), 28u);        // next-highest surfaced
}

TEST(Qprac, IdealMatchesBruteForceMaximum)
{
    // Random ACTs, RFMs and energy-aware REFs over two banks; after every
    // step the tracker must agree with a plain scan of the counters.
    constexpr int kRows = 256;
    constexpr int kNbo = 12;
    PracCounters ctrs(2, kRows);
    Qprac q(QpracConfig::idealTopN(kNbo, 1), &ctrs);
    Rng rng(20250118);
    int mitigations = 0;
    for (int step = 0; step < 20000; ++step) {
        const int bank = static_cast<int>(rng.nextBelow(2));
        const bool rfm = rng.nextBool(0.03);
        const bool ref = !rfm && rng.nextBool(0.02);
        std::vector<ActCount> before(kRows);
        for (int r = 0; r < kRows; ++r)
            before[static_cast<std::size_t>(r)] = ctrs.count(bank, r);
        const std::uint64_t mitigated = ctrs.totalMitigations();
        if (rfm) {
            q.onRfm(bank, RfmScope::AllBank, q.alertingBank() == bank, 0);
        } else if (ref) {
            q.onRefresh(bank, 0);
        } else {
            // Even rows only: ties at the top are common, and a victim
            // refresh (rows +-1, +-2) often lands on another hot row.
            act(ctrs, q, bank, static_cast<int>(rng.nextBelow(64)) * 2);
        }
        if (ctrs.totalMitigations() != mitigated) {
            ++mitigations;
            // The aggressor is the one row whose counter was cleared.
            int row = -1;
            for (int r = 0; r < kRows; ++r)
                if (before[static_cast<std::size_t>(r)] > 0 &&
                    ctrs.count(bank, r) == 0)
                    row = r;
            ASSERT_NE(row, -1) << step;
            EXPECT_EQ(before[static_cast<std::size_t>(row)],
                      *std::max_element(before.begin(), before.end()))
                << "step " << step << " mitigated row " << row;
        }
        for (int b = 0; b < 2; ++b) {
            ASSERT_EQ(q.topCount(b), ctrs.maxCount(b)) << step;
            ASSERT_EQ(q.bankWantsAlert(b),
                      ctrs.maxCount(b) >= static_cast<ActCount>(kNbo))
                << step;
        }
    }
    EXPECT_GT(mitigations, 500);
    EXPECT_GT(q.stats().proactive_mitigations, 0u);
    // Ideal keeps no PSQ: no PSQ traffic and no queue to sample.
    EXPECT_EQ(q.stats().psq_insertions, 0u);
    EXPECT_EQ(q.stats().psq_evictions, 0u);
    EXPECT_EQ(q.stats().psq_hits, 0u);
    EXPECT_EQ(q.queueOccupancy(), -1);
}

TEST(Qprac, IdealTieGoesToTheRowThatReachedTheCountFirst)
{
    PracCounters ctrs(1, 256);
    Qprac q(QpracConfig::idealTopN(64, 1), &ctrs);
    auto acts = [&](int row, int n) {
        for (int i = 0; i < n; ++i)
            act(ctrs, q, 0, row);
    };
    // Rows reach count 3 in the order 100, 60, 140, 80, 120; neither
    // first touch (row 80) nor row number gives that order.
    acts(80, 1);
    acts(100, 3);
    acts(140, 1);
    acts(60, 3);
    acts(140, 2);
    acts(80, 2);
    acts(120, 3);
    acts(40, 2); // one short of the tie
    acts(42, 5); // the unique maximum; row 40 is its victim
    auto rfm = [&] { q.onRfm(0, RfmScope::AllBank, false, 0); };

    rfm();
    EXPECT_EQ(ctrs.count(0, 42), 0u);
    // The victim refresh lifts row 40 to 3, behind the rows already there.
    EXPECT_EQ(ctrs.count(0, 40), 3u);
    EXPECT_EQ(q.topCount(0), 3u);
    for (int row : {100, 60, 140, 80, 120, 40}) {
        rfm();
        EXPECT_EQ(ctrs.count(0, row), 0u) << "expected row " << row;
    }
    EXPECT_EQ(q.topCount(0), 2u); // row 41, a victim of both 42 and 40
}

TEST(Qprac, AlertRequestCountedOncePerEpisode)
{
    PracCounters ctrs(1, 256);
    Qprac q(QpracConfig::base(4, 1), &ctrs);
    for (int i = 0; i < 6; ++i)
        act(ctrs, q, 0, 10);
    EXPECT_EQ(q.stats().alerts, 1u); // stays asserted, counted once
    q.onRfm(0, RfmScope::AllBank, true, 0);
    EXPECT_FALSE(q.wantsAlert());
    for (int i = 0; i < 4; ++i)
        act(ctrs, q, 0, 20);
    EXPECT_EQ(q.stats().alerts, 2u);
}

TEST(Qprac, PsqSizeOneStillMitigates)
{
    PracCounters ctrs(1, 256);
    QpracConfig cfg = QpracConfig::base(4, 1);
    cfg.psq_size = 1;
    Qprac q(cfg, &ctrs);
    for (int i = 0; i < 4; ++i)
        act(ctrs, q, 0, 10);
    ASSERT_TRUE(q.wantsAlert());
    q.onRfm(0, RfmScope::AllBank, true, 0);
    EXPECT_EQ(ctrs.count(0, 10), 0u);
}
