/**
 * @file
 * Cross-module property tests: randomized differential checks of the
 * invariants the paper's security argument rests on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "attacks/wave_attack.h"
#include "common/rng.h"
#include "core/psq.h"
#include "core/qprac.h"
#include "dram/prac_counters.h"
#include "security/prac_model.h"

using namespace qprac;
using core::LinearCamQueue;
using core::Qprac;
using core::QpracConfig;
using dram::PracCounters;
using dram::RfmScope;

/**
 * Property 1 (§III-B3): under arbitrary traffic, whenever the PSQ is
 * full, its minimum count is at least as high as any count it ever
 * rejected since the last eviction of that row — equivalently, a row
 * whose current count exceeds the queue minimum is ALWAYS admitted.
 * This is the property FIFO queues lack (Fill+Escape).
 */
TEST(Properties, PsqNeverRejectsAboveMinimum)
{
    Rng rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        LinearCamQueue psq(4);
        std::map<int, ActCount> counts;
        for (int step = 0; step < 3000; ++step) {
            int row = static_cast<int>(rng.nextBelow(32));
            ActCount c = ++counts[row];
            ActCount min_before = psq.minCount();
            auto result = psq.onActivate(row, c);
            if (result == core::PsqInsert::Rejected)
                ASSERT_LE(c, min_before)
                    << "a row above the minimum was rejected";
            else
                ASSERT_TRUE(psq.contains(row));
        }
    }
}

/**
 * Property 2 (§IV-B): after any activation sequence, the row QPRAC
 * would mitigate next (PSQ top) has a count no lower than the
 * (size)-th highest true per-row count — with a 5-entry PSQ and
 * single-row mitigations, the PSQ top IS the global maximum whenever
 * the maximum was activated at its current count.
 */
TEST(Properties, PsqTopMatchesGlobalMaxAfterItsActivation)
{
    Rng rng(77);
    for (int trial = 0; trial < 30; ++trial) {
        PracCounters ctrs(1, 512);
        Qprac q(QpracConfig::base(1 << 20, 1), &ctrs); // alerts disabled
        int last_row = -1;
        for (int step = 0; step < 2000; ++step) {
            int row = static_cast<int>(rng.nextBelow(64)) * 8;
            ActCount c = ctrs.onActivate(0, row);
            q.onActivate(0, row, c, 0);
            last_row = row;
        }
        ActCount global_max = ctrs.maxCount(0);
        if (ctrs.count(0, last_row) == global_max) {
            ASSERT_EQ(q.psq(0).maxCount(), global_max);
        }
        // In all cases the tracked top is a lower bound on reality and
        // within the truth (never an overestimate).
        ASSERT_LE(q.psq(0).maxCount(), global_max);
    }
}

/**
 * Property 3: PSQ and Ideal tracking mitigate the same total number of
 * rows under the wave attack, and neither lets any row exceed the
 * analytical bound.
 */
TEST(Properties, WaveAttackBoundHoldsAcrossConfigs)
{
    Rng rng(5);
    for (int trial = 0; trial < 6; ++trial) {
        attacks::WaveAttackConfig wc;
        wc.nbo = static_cast<int>(8 + rng.nextBelow(48));
        wc.nmit = (trial % 3 == 0) ? 1 : (trial % 3 == 1) ? 2 : 4;
        wc.r1 = static_cast<long>(300 + rng.nextBelow(3000));
        wc.psq_size = 5;
        auto sim = attacks::simulateWaveAttack(wc);
        security::PracModelConfig mc =
            security::PracModelConfig::prac(wc.nmit);
        security::PracSecurityModel model(mc);
        int bound = wc.nbo + model.nOnline(wc.r1);
        ASSERT_LE(static_cast<int>(sim.max_count), bound + 2)
            << "nbo=" << wc.nbo << " nmit=" << wc.nmit
            << " r1=" << wc.r1;
    }
}

/**
 * Property 4: mitigation counter hygiene — victims gain exactly +1 per
 * mitigation of an in-range neighbour and the aggressor resets, for
 * arbitrary mitigation sequences.
 */
TEST(Properties, MitigationCounterArithmetic)
{
    Rng rng(99);
    PracCounters ctrs(1, 256, 2);
    std::vector<long> shadow(256, 0);
    for (int step = 0; step < 2000; ++step) {
        if (rng.nextBool(0.8)) {
            int row = static_cast<int>(rng.nextBelow(256));
            ctrs.onActivate(0, row);
            ++shadow[static_cast<std::size_t>(row)];
        } else {
            int row = static_cast<int>(rng.nextBelow(256));
            ctrs.mitigate(0, row, nullptr);
            shadow[static_cast<std::size_t>(row)] = 0;
            for (int d = 1; d <= 2; ++d) {
                if (row - d >= 0)
                    ++shadow[static_cast<std::size_t>(row - d)];
                if (row + d < 256)
                    ++shadow[static_cast<std::size_t>(row + d)];
            }
        }
    }
    for (int row = 0; row < 256; ++row)
        ASSERT_EQ(ctrs.count(0, row),
                  static_cast<ActCount>(
                      shadow[static_cast<std::size_t>(row)]))
            << "row " << row;
}

/**
 * Property 5: the analytical model is monotone — more mitigations per
 * alert, or proactive mitigation, never hurt (never raise secure TRH at
 * fixed NBO).
 */
TEST(Properties, ModelMonotonicity)
{
    using security::PracModelConfig;
    using security::PracSecurityModel;
    for (int nbo : {1, 4, 16, 32, 64}) {
        PracSecurityModel m1(PracModelConfig::prac(1));
        PracSecurityModel m2(PracModelConfig::prac(2));
        PracSecurityModel m4(PracModelConfig::prac(4));
        EXPECT_GE(m1.secureTrh(nbo), m2.secureTrh(nbo));
        EXPECT_GE(m2.secureTrh(nbo), m4.secureTrh(nbo));
        PracSecurityModel p1(PracModelConfig::qpracProactive(1));
        EXPECT_GE(m1.secureTrh(nbo), p1.secureTrh(nbo));
    }
}

/** Parameterized sweep of Property 1 across queue capacities. */
class PsqAdmissionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PsqAdmissionProperty, HoldsForCapacity)
{
    const int capacity = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(capacity));
    LinearCamQueue psq(capacity);
    std::map<int, ActCount> counts;
    for (int step = 0; step < 4000; ++step) {
        int row = static_cast<int>(rng.nextBelow(64));
        ActCount c = ++counts[row];
        ActCount min_before = psq.minCount();
        if (psq.onActivate(row, c) == core::PsqInsert::Rejected) {
            ASSERT_LE(c, min_before);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, PsqAdmissionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 32));

/**
 * Property 6 (tie-break contract, psq.h): LinearCamQueue makes the
 * decisions of a brute-force model that keeps its entries ordered by
 * (count, insertion age). Fed a seeded activation stream with
 * interleaved mitigations (remove-top, the way QPRAC drains the queue),
 * both return the same insert outcome and expose the same top, min,
 * max and membership at every step, and end holding the same
 * (row, count, seq) set.
 */
class PsqModel
{
  public:
    explicit PsqModel(int capacity) : capacity_(capacity) {}

    core::PsqInsert onActivate(int row, ActCount count)
    {
        if (auto it = find(row); it != entries_.end()) {
            const std::uint64_t seq = std::get<1>(*it);
            entries_.erase(it);
            entries_.insert({count, seq, row});
            return core::PsqInsert::Hit;
        }
        if (static_cast<int>(entries_.size()) < capacity_) {
            entries_.insert({count, next_seq_++, row});
            return core::PsqInsert::Inserted;
        }
        if (count <= std::get<0>(*entries_.begin()))
            return core::PsqInsert::Rejected;
        entries_.erase(entries_.begin()); // lowest count, then oldest
        entries_.insert({count, next_seq_++, row});
        return core::PsqInsert::Evicted;
    }

    /** Oldest entry at the highest count; kNoRow when empty. */
    int topRow() const
    {
        if (entries_.empty())
            return kNoRow;
        const ActCount max = std::get<0>(*entries_.rbegin());
        return std::get<2>(*entries_.lower_bound({max, 0, 0}));
    }

    ActCount minCount() const
    {
        return static_cast<int>(entries_.size()) < capacity_
                   ? 0
                   : std::get<0>(*entries_.begin());
    }

    ActCount maxCount() const
    {
        return entries_.empty() ? 0 : std::get<0>(*entries_.rbegin());
    }

    bool remove(int row)
    {
        auto it = find(row);
        if (it == entries_.end())
            return false;
        entries_.erase(it);
        return true;
    }

    bool contains(int row) const { return find(row) != entries_.end(); }

    ActCount countOf(int row) const
    {
        auto it = find(row);
        return it == entries_.end() ? 0 : std::get<0>(*it);
    }

    /** (row, count, seq) of every entry, by row. */
    std::vector<std::tuple<int, ActCount, std::uint64_t>> byRow() const
    {
        std::vector<std::tuple<int, ActCount, std::uint64_t>> out;
        for (const auto& [count, seq, row] : entries_)
            out.emplace_back(row, count, seq);
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    using Entry = std::tuple<ActCount, std::uint64_t, int>; ///< count, seq, row

    std::set<Entry>::const_iterator find(int row) const
    {
        return std::find_if(entries_.begin(), entries_.end(),
                            [row](const Entry& e) {
                                return std::get<2>(e) == row;
                            });
    }

    int capacity_;
    std::set<Entry> entries_;
    std::uint64_t next_seq_ = 0;
};

class PsqDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(PsqDifferential, MatchesBruteForceModel)
{
    const int capacity = GetParam();
    // Few rows per slot keep counts close, so ties are common.
    const int rows = 3 * capacity + 8;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(capacity));
        LinearCamQueue psq(capacity);
        PsqModel model(capacity);
        std::map<int, ActCount> counts;

        for (int step = 0; step < 8000; ++step) {
            if (rng.nextBool(0.03)) {
                // Mitigation: the queue and the model pick the same row.
                const core::SqEntry* top = psq.top();
                ASSERT_EQ(top ? top->row : kNoRow, model.topRow())
                    << "step " << step;
                if (top) {
                    const int row = top->row;
                    counts[row] = 0; // PRAC reset
                    ASSERT_TRUE(psq.remove(row));
                    ASSERT_TRUE(model.remove(row));
                }
                continue;
            }
            const int row = static_cast<int>(
                rng.nextBelow(static_cast<std::uint64_t>(rows)));
            const ActCount c = ++counts[row];
            ASSERT_EQ(psq.onActivate(row, c), model.onActivate(row, c))
                << "step " << step << " row " << row << " count " << c;
            const core::SqEntry* top = psq.top();
            ASSERT_EQ(top ? top->row : kNoRow, model.topRow())
                << "step " << step;
            ASSERT_EQ(psq.minCount(), model.minCount()) << "step " << step;
            ASSERT_EQ(psq.maxCount(), model.maxCount()) << "step " << step;
            ASSERT_EQ(psq.contains(row), model.contains(row));
            ASSERT_EQ(psq.countOf(row), model.countOf(row));
        }

        std::vector<std::tuple<int, ActCount, std::uint64_t>> held;
        for (const core::SqEntry& e : psq.snapshot())
            held.emplace_back(e.row, e.count, e.seq);
        std::sort(held.begin(), held.end());
        EXPECT_EQ(held, model.byRow()) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, PsqDifferential,
                         ::testing::Values(1, 2, 5, 16, 64));
