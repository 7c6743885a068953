/**
 * @file
 * Unit tests for PRAC per-row activation counters (paper §II-D, §III-C).
 */
#include <gtest/gtest.h>

#include "dram/prac_counters.h"

using qprac::dram::PracCounters;

TEST(PracCounters, IncrementOnActivate)
{
    PracCounters c(2, 64);
    EXPECT_EQ(c.onActivate(0, 5), 1u);
    EXPECT_EQ(c.onActivate(0, 5), 2u);
    EXPECT_EQ(c.count(0, 5), 2u);
    EXPECT_EQ(c.count(1, 5), 0u); // banks independent
}

TEST(PracCounters, MitigateResetsAggressorAndBumpsVictims)
{
    PracCounters c(1, 64, 2);
    for (int i = 0; i < 10; ++i)
        c.onActivate(0, 30);
    PracCounters::VictimInfo victims[8];
    int n = c.mitigate(0, 30, victims);
    EXPECT_EQ(n, 4); // BR=2 on both sides
    EXPECT_EQ(c.count(0, 30), 0u);
    EXPECT_EQ(c.count(0, 28), 1u);
    EXPECT_EQ(c.count(0, 29), 1u);
    EXPECT_EQ(c.count(0, 31), 1u);
    EXPECT_EQ(c.count(0, 32), 1u);
    EXPECT_EQ(c.count(0, 27), 0u); // outside blast radius
}

TEST(PracCounters, BlastRadiusMustFitTheVictimArrays)
{
    // Every mitigation writes its victims into a kMaxVictims array.
    constexpr int kMaxRadius = PracCounters::kMaxVictims / 2;
    PracCounters widest(1, 64, kMaxRadius);
    PracCounters::VictimInfo victims[PracCounters::kMaxVictims];
    EXPECT_EQ(widest.mitigate(0, 32, victims), PracCounters::kMaxVictims);
    EXPECT_DEATH(PracCounters(1, 64, kMaxRadius + 1),
                 "blast radius overflows the victim arrays");
}

TEST(PracCounters, OutOfRangeRowsAndBanksDie)
{
    // The accessors inline into their callers; each keeps its checks.
    PracCounters c(2, 64);
    PracCounters::VictimInfo victims[PracCounters::kMaxVictims];
    EXPECT_DEATH(c.count(0, 64), "row out of range");
    EXPECT_DEATH(c.count(1, -1), "row out of range");
    EXPECT_DEATH(c.count(2, 0), "bank out of range");
    EXPECT_DEATH(c.onActivate(0, 64), "row out of range");
    EXPECT_DEATH(c.onActivate(-1, 0), "bank out of range");
    EXPECT_DEATH(c.mitigate(0, -1, victims), "row out of range");
    EXPECT_DEATH(c.mitigate(2, 0, victims), "bank out of range");
}

TEST(PracCounters, MitigateWithoutResetKeepsAggressorCount)
{
    // Panopticon's t-bit mode: the counter keeps running.
    PracCounters c(1, 64, 2);
    for (int i = 0; i < 7; ++i)
        c.onActivate(0, 20);
    c.mitigate(0, 20, nullptr, false);
    EXPECT_EQ(c.count(0, 20), 7u);
}

TEST(PracCounters, BlastRadiusClampedAtEdges)
{
    PracCounters c(1, 16, 2);
    PracCounters::VictimInfo victims[8];
    c.onActivate(0, 0);
    EXPECT_EQ(c.mitigate(0, 0, victims), 2); // only rows 1 and 2 exist
    c.onActivate(0, 15);
    EXPECT_EQ(c.mitigate(0, 15, victims), 2); // only rows 13 and 14
}

TEST(PracCounters, VictimInfoReportsUpdatedCounts)
{
    PracCounters c(1, 64, 1);
    for (int i = 0; i < 5; ++i)
        c.onActivate(0, 11); // victim-to-be of row 10
    c.onActivate(0, 10);
    PracCounters::VictimInfo victims[4];
    int n = c.mitigate(0, 10, victims);
    ASSERT_EQ(n, 2);
    bool found = false;
    for (int i = 0; i < n; ++i)
        if (victims[i].row == 11) {
            EXPECT_EQ(victims[i].count, 6u);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(PracCounters, LifetimeTotals)
{
    PracCounters c(1, 64, 2);
    for (int i = 0; i < 5; ++i)
        c.onActivate(0, 30);
    c.mitigate(0, 30, nullptr);
    EXPECT_EQ(c.totalActivations(), 5u);
    EXPECT_EQ(c.totalMitigations(), 1u);
    EXPECT_EQ(c.totalVictimRefreshes(), 4u);
}

TEST(PracCounters, MaxScanHelpers)
{
    PracCounters c(1, 64);
    for (int i = 0; i < 3; ++i)
        c.onActivate(0, 7);
    c.onActivate(0, 50);
    EXPECT_EQ(c.maxCount(0), 3u);
    EXPECT_EQ(c.maxRow(0), 7);
}

TEST(PracCounters, ResetClearsRow)
{
    PracCounters c(1, 64);
    c.onActivate(0, 9);
    c.reset(0, 9);
    EXPECT_EQ(c.count(0, 9), 0u);
}
