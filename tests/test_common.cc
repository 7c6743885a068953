/**
 * @file
 * Unit tests for common infrastructure (RNG, stats, CSV, tables).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

using namespace qprac;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliApproximatesProbability)
{
    Rng r(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (r.nextBool(0.25))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, StableHashIsStable)
{
    EXPECT_EQ(stableHash("429.mcf"), stableHash("429.mcf"));
    EXPECT_NE(stableHash("429.mcf"), stableHash("429.mcg"));
}

TEST(StatSet, SetAddGet)
{
    StatSet s;
    s.set("a", 2.0);
    s.add("a", 3.0);
    s.add("b", 1.0);
    EXPECT_DOUBLE_EQ(s.get("a"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("b"), 1.0);
    EXPECT_DOUBLE_EQ(s.getOr("zzz", 7.0), 7.0);
    EXPECT_TRUE(s.has("a"));
    EXPECT_FALSE(s.has("zzz"));
}

TEST(StatSet, RatioVs)
{
    StatSet a, b;
    a.set("ipc", 3.0);
    b.set("ipc", 2.0);
    EXPECT_DOUBLE_EQ(a.ratioVs(b, "ipc"), 1.5);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StrCat, ConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("x=", 42, " y=", 1.5), "x=42 y=1.5");
    EXPECT_EQ(strCat(), "");
}

TEST(QpAssert, FailureMessageKeepsItsShape)
{
    // assertion failed: <cond> @ <file>:<line> <args>, the arguments
    // streamed together, from the out-of-line failure path.
    const int value = 7;
    EXPECT_DEATH(QP_ASSERT(value < 3, "value ", value, " of ", 3),
                 "panic: assertion failed: value < 3 @ .*test_common\\.cc"
                 ":[0-9]+ value 7 of 3\n");
}

TEST(Csv, WritesHeaderAndRows)
{
    std::string path = "/tmp/qprac_csv_test.csv";
    {
        CsvWriter csv(path, {"a", "b"});
        ASSERT_TRUE(csv.ok());
        csv.addRow({"1", "2"});
        csv.addRow({CsvWriter::num(3.5), "x"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,b");
    std::getline(in, line);
    EXPECT_EQ(line, "1,2");
    std::getline(in, line);
    EXPECT_EQ(line, "3.5,x");
    std::remove(path.c_str());
}

TEST(Csv, EmptyPathDisablesOutput)
{
    CsvWriter csv("", {"a"});
    EXPECT_FALSE(csv.ok());
    csv.addRow({"1"}); // no crash
}

TEST(TablePrinter, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(12.44, 1), "12.4%");
}
