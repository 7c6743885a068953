/**
 * @file
 * Tests of the Wave/Feinting attack simulation (paper §IV-A/B) — most
 * importantly the §IV-B equivalence: QPRAC with a bounded PSQ tracks the
 * attack exactly as well as the oracular (Ideal) implementation.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "attacks/wave_attack.h"
#include "security/prac_model.h"
#include "sim/scenario_hash.h"

using qprac::attacks::simulateWaveAttack;
using qprac::attacks::WaveAttackConfig;
using qprac::security::PracModelConfig;
using qprac::security::PracSecurityModel;

namespace {

WaveAttackConfig
cfg(int nbo, int nmit, long r1, bool ideal)
{
    WaveAttackConfig c;
    c.nbo = nbo;
    c.nmit = nmit;
    c.psq_size = 5;
    c.r1 = r1;
    c.ideal = ideal;
    return c;
}

} // namespace

TEST(WaveAttack, PsqMatchesIdealMaxCount)
{
    // Paper §IV-B: "maximum activation counts for QPRAC (with PSQ) are
    // identical to those of the ideal PRAC (without PSQ)".
    for (int nmit : {1, 2, 4}) {
        for (long r1 : {500L, 2000L}) {
            auto psq = simulateWaveAttack(cfg(32, nmit, r1, false));
            auto ideal = simulateWaveAttack(cfg(32, nmit, r1, true));
            EXPECT_EQ(psq.max_count, ideal.max_count)
                << "nmit=" << nmit << " r1=" << r1;
        }
    }
}

TEST(WaveAttack, AnalyticalModelUpperBoundsEmpiricalAttack)
{
    // Eq. 1/2 are a (tight) upper bound: the empirical attack must stay
    // at or below NBO + N_online, and come close to it.
    for (int nmit : {1, 2, 4}) {
        long r1 = 4000;
        auto sim = simulateWaveAttack(cfg(32, nmit, r1, false));
        PracSecurityModel model(PracModelConfig::prac(nmit));
        int bound = 32 + model.nOnline(r1);
        EXPECT_LE(static_cast<int>(sim.max_count), bound + 2)
            << "nmit=" << nmit;
        EXPECT_GE(static_cast<double>(sim.max_count), 0.7 * bound)
            << "nmit=" << nmit;
    }
}

TEST(WaveAttack, MoreMitigationsPerAlertLowerMaxCount)
{
    long r1 = 3000;
    auto p1 = simulateWaveAttack(cfg(32, 1, r1, false));
    auto p2 = simulateWaveAttack(cfg(32, 2, r1, false));
    auto p4 = simulateWaveAttack(cfg(32, 4, r1, false));
    EXPECT_GT(p1.max_count, p2.max_count);
    EXPECT_GT(p2.max_count, p4.max_count);
}

TEST(WaveAttack, MaxCountGrowsWithPool)
{
    auto small = simulateWaveAttack(cfg(16, 1, 200, false));
    auto large = simulateWaveAttack(cfg(16, 1, 8000, false));
    EXPECT_GT(large.max_count, small.max_count);
}

TEST(WaveAttack, ProactiveShrinksSetupPool)
{
    WaveAttackConfig c = cfg(32, 1, 3000, false);
    c.proactive = true;
    auto pro = simulateWaveAttack(c);
    c.proactive = false;
    auto base = simulateWaveAttack(c);
    EXPECT_LT(pro.pool_after_setup, base.pool_after_setup);
    EXPECT_LE(pro.max_count, base.max_count);
}

TEST(WaveAttack, AlertsScaleWithPool)
{
    auto sim = simulateWaveAttack(cfg(32, 1, 2000, false));
    // Every alert mitigates one row; nearly the whole pool must be
    // mitigated across the online phase.
    EXPECT_GE(sim.alerts, 1900);
}

/** Parameterized PSQ==Ideal sweep over queue sizes (Fig 17's range). */
class WaveEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(WaveEquivalence, PsqSizeDoesNotWeakenSecurity)
{
    int psq_size = GetParam();
    WaveAttackConfig c = cfg(24, 1, 1500, false);
    c.psq_size = psq_size;
    auto psq = simulateWaveAttack(c);
    c.ideal = true;
    auto ideal = simulateWaveAttack(c);
    // PSQ >= Nmit suffices for equivalence (paper §III-C3).
    EXPECT_EQ(psq.max_count, ideal.max_count);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WaveEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(WaveAttack, IdealGridMatchesParentResults)
{
    // The grid of the §IV-B comparison, for Ideal and both PSQ designs
    // it is made against: how QPRAC finds, inserts and services rows,
    // and how the harness paces REF slots, must never move a Wave
    // result. Each hash covers every WaveAttackResult field of one
    // design's grid. Ideal's was recorded with the lazy-heap tracker the
    // count buckets replaced, the PSQ designs' before the one-pass
    // insert and the REF countdown. With PRAC-1 the PSQ matches Ideal
    // point for point.
    struct Design
    {
        const char* name;
        bool ideal;
        bool proactive;
        std::uint64_t hash;
    };
    for (const Design& d : {Design{"qprac-ideal", true, false,
                                   0xae2ffe07ad524e25ULL},
                            Design{"qprac", false, false,
                                   0xae2ffe07ad524e25ULL},
                            Design{"qprac+proactive", false, true,
                                   0xab897c588962e8d9ULL}}) {
        std::string bytes;
        for (int psq = 1; psq <= 8; ++psq)
            for (int nbo : {16, 32, 64})
                for (long r1 : {10L, 100L, 1000L}) {
                    WaveAttackConfig c = cfg(nbo, 1, r1, d.ideal);
                    c.psq_size = psq;
                    c.proactive = d.proactive;
                    auto r = simulateWaveAttack(c);
                    bytes += std::to_string(r.max_count) + ' ' +
                             std::to_string(r.rounds) + ' ' +
                             std::to_string(r.alerts) + ' ' +
                             std::to_string(r.total_acts) + ' ' +
                             std::to_string(r.pool_after_setup) + '\n';
                }
        EXPECT_EQ(qprac::sim::fnv1a64(bytes), d.hash) << d.name;
    }
}
