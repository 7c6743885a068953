/**
 * @file
 * Tests for the alert-storm performance attack (paper §VI-E, Fig 19).
 */
#include <gtest/gtest.h>

#include "attacks/perf_attack.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/scenario_hash.h"

using namespace qprac;
using attacks::bandwidthLossPct;
using attacks::PerfAttackConfig;
using attacks::runPerfAttack;
using core::QpracConfig;
using dram::RfmScope;

namespace {

PerfAttackConfig
quick(int nbo, RfmScope scope, bool proactive)
{
    const sim::DesignSpec d = sim::DesignSpec::qprac(
        proactive ? QpracConfig::proactiveEvery(nbo)
                  : QpracConfig::base(nbo),
        scope);
    PerfAttackConfig c;
    c.timing = d.timing;
    c.ctrl.abo = d.abo;
    c.mitigation = d.factory;
    c.sim_cycles = 300'000; // short but past steady state
    return c;
}

/** A validated `attack:perf` scenario: @p mitigation at @p nbo, run
 * for @p cycles. */
sim::ScenarioConfig
perfScenario(const char* mitigation, int nbo, const char* cycles)
{
    sim::ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", "attack:perf", &err)) << err;
    EXPECT_TRUE(cfg.set("mitigation", mitigation, &err)) << err;
    EXPECT_TRUE(cfg.set("nbo", std::to_string(nbo), &err)) << err;
    EXPECT_TRUE(cfg.set("attack_cycles", cycles, &err)) << err;
    EXPECT_TRUE(cfg.validate(&err)) << mitigation << ": " << err;
    return cfg;
}

} // namespace

TEST(PerfAttack, BaselineSustainsHighActRate)
{
    PerfAttackConfig c;
    c.ctrl.abo.enabled = false;
    c.sim_cycles = 300'000;
    auto r = runPerfAttack(c);
    EXPECT_GT(r.acts, 10'000u);
    EXPECT_EQ(r.alerts, 0u);
}

TEST(PerfAttack, SimulatedAlertStormCutsBandwidth)
{
    double loss = bandwidthLossPct(quick(16, RfmScope::AllBank, false));
    // The concrete round-robin attacker is blunted by opportunistic
    // draining but still measurably degrades bandwidth.
    EXPECT_GT(loss, 3.0);
}

TEST(PerfAttack, SimulatedLossDecreasesWithNbo)
{
    double l16 = bandwidthLossPct(quick(16, RfmScope::AllBank, false));
    double l128 = bandwidthLossPct(quick(128, RfmScope::AllBank, false));
    EXPECT_GT(l16, l128);
}

TEST(PerfAttack, AnalyticMatchesPaperAnchorsNoProactive)
{
    using attacks::analyticBandwidthLossPct;
    // Fig 19: QPRAC-RFMab loses 62% (NBO=128) to 93% (NBO=16).
    EXPECT_NEAR(analyticBandwidthLossPct(128, RfmScope::AllBank, false),
                62.0, 8.0);
    EXPECT_NEAR(analyticBandwidthLossPct(16, RfmScope::AllBank, false),
                93.0, 4.0);
}

TEST(PerfAttack, AnalyticProactiveDefeatsHighNbo)
{
    using attacks::analyticBandwidthLossPct;
    // Fig 19: proactive eliminates the loss at NBO=128, keeps it small
    // at 64, and cannot help at 32/16.
    EXPECT_DOUBLE_EQ(
        analyticBandwidthLossPct(128, RfmScope::AllBank, true), 0.0);
    EXPECT_LT(analyticBandwidthLossPct(64, RfmScope::AllBank, true),
              45.0);
    EXPECT_GT(analyticBandwidthLossPct(32, RfmScope::AllBank, true),
              60.0);
}

TEST(PerfAttack, AnalyticNarrowerScopesLoseLess)
{
    using attacks::analyticBandwidthLossPct;
    for (int nbo : {16, 32}) {
        double ab = analyticBandwidthLossPct(nbo, RfmScope::AllBank, true);
        double sb =
            analyticBandwidthLossPct(nbo, RfmScope::SameBank, true);
        double pb = analyticBandwidthLossPct(nbo, RfmScope::PerBank, true);
        EXPECT_GT(ab, sb) << nbo;
        EXPECT_GT(sb, pb) << nbo;
    }
}

TEST(PerfAttack, AnalyticMonotoneInNbo)
{
    using attacks::analyticBandwidthLossPct;
    double prev = 101.0;
    for (int nbo : {16, 32, 64, 128}) {
        double loss =
            analyticBandwidthLossPct(nbo, RfmScope::AllBank, false);
        EXPECT_LT(loss, prev);
        prev = loss;
    }
}

TEST(PerfAttack, SkipIsResultNeutralOnEveryDesignKind)
{
    // The driver ticks a MemorySystem every cycle; with skipping on, a
    // shard sleeps through the cycles its horizon proves idle. The
    // result must not move, for no mitigation, PSQ and Ideal QPRAC and
    // a non-QPRAC design alike.
    for (const char* design : {"none", "qprac", "qprac-ideal", "moat"}) {
        sim::ScenarioConfig cfg = perfScenario(design, 8, "120000");
        std::string err;
        ASSERT_TRUE(cfg.set("skip", "off", &err)) << err;
        const sim::ScenarioResult dense = sim::runScenario(cfg);
        ASSERT_TRUE(cfg.set("skip", "on", &err)) << err;
        const sim::ScenarioResult skipped = sim::runScenario(cfg);
        EXPECT_EQ(dense.resultJson(), skipped.resultJson()) << design;
        EXPECT_EQ(dense.sim.skip.cycles_skipped, 0u) << design;
        EXPECT_GT(dense.stats.get("attack.acts"), 0.0) << design;
        if (std::string(design) != "none") {
            EXPECT_GT(dense.stats.get("attack.alerts"), 0.0) << design;
        }
        if (std::string(design) == "qprac") {
            EXPECT_GT(skipped.sim.skip.cycles_skipped, 0u);
        }
    }
}

TEST(PerfAttack, PinnedDesignsMatchParentResults)
{
    // No mitigation, base QPRAC and every-REF proactive QPRAC ran the
    // same engine before the driver moved onto ctrl::MemorySystem and
    // took its design from the scenario; their results must not move.
    // Each hash covers acts, alerts and cycles at NBO 8 and 32, recorded
    // with the driver's own controller loop.
    struct Design
    {
        const char* name;
        std::uint64_t hash;
    };
    for (const Design& d : {Design{"none", 0xff5621491e6097a5ULL},
                            Design{"qprac", 0x5d69a4b61c9ff625ULL},
                            Design{"qprac+proactive",
                                   0xa1021cfbcc1f2fb8ULL}}) {
        std::string bytes;
        for (int nbo : {8, 32}) {
            const sim::ScenarioResult r =
                sim::runScenario(perfScenario(d.name, nbo, "600000"));
            for (const char* stat :
                 {"attack.acts", "attack.alerts", "attack.cycles"})
                bytes += std::to_string(
                             static_cast<std::uint64_t>(r.stats.get(stat))) +
                         ' ';
            bytes += '\n';
        }
        EXPECT_EQ(sim::fnv1a64(bytes), d.hash) << d.name << '\n' << bytes;
    }
}
