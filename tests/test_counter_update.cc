/**
 * @file
 * The counter-update axis (dram/timing.h) and its scenario plumbing.
 *
 * The load-bearing contracts:
 *  - counter-update=inline is the paper's PRAC timing: same result
 *    JSON whether or not a config names the key, and no
 *    counter-update stats in the document.
 *  - counter-update=queued only switches banks to the conventional
 *    tRAS/tRP split. The device refuses timings whose counter RMW
 *    (tRP - tRP_base) would not fit in one conventional row cycle,
 *    because only then can no ACT ever wait on a write-back.
 *  - Two queued result documents are pinned by hash, so any change to
 *    queued timing shows up as a test failure.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dram/dram_device.h"
#include "dram/timing.h"
#include "sim/scenario.h"
#include "sim/scenario_hash.h"

using namespace qprac;
using dram::CounterUpdateConfig;
using dram::CounterUpdateMode;
using sim::ScenarioConfig;
using sim::ScenarioResult;

namespace {

ScenarioConfig
simConfig(const std::string& mode)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", "workload:429.mcf", &err)) << err;
    EXPECT_TRUE(cfg.set("counter-update", mode, &err)) << err;
    cfg.cores = 2;
    cfg.insts = 10'000;
    cfg.llc_mb = 2;
    return cfg;
}

} // namespace

// --- Mode names --------------------------------------------------------

TEST(CounterUpdateMode, NamesRoundTrip)
{
    for (auto mode : {CounterUpdateMode::Inline, CounterUpdateMode::Queued}) {
        CounterUpdateMode parsed;
        ASSERT_TRUE(dram::parseCounterUpdateMode(
            dram::counterUpdateModeName(mode), &parsed));
        EXPECT_EQ(parsed, mode);
    }
    CounterUpdateMode parsed;
    EXPECT_FALSE(dram::parseCounterUpdateMode("batched", &parsed));
    EXPECT_FALSE(dram::parseCounterUpdateMode("coalesced", &parsed));
    EXPECT_FALSE(dram::parseCounterUpdateMode("", &parsed));
}

// --- Device-level timing headroom --------------------------------------

TEST(CounterUpdateTiming, PracSplitCarriesConventionalBase)
{
    const auto t = dram::TimingParams::ddr5Prac();
    // PRAC folds the counter RMW into the precharge: tRAS 16ns /
    // tRP 36ns. The counter-free base split is the conventional
    // 32ns / 16ns — strictly shorter row cycle.
    EXPECT_GT(t.tRP, t.tRP_base);
    EXPECT_LT(t.tRAS, t.tRAS_base);
    EXPECT_GT(t.tRAS + t.tRP, t.tRAS_base + t.tRP_base);
    // The RMW (20ns) fits in one conventional row cycle (48ns).
    EXPECT_LE(t.tRP - t.tRP_base, t.tRAS_base + t.tRP_base);
    const auto np = dram::TimingParams::ddr5NoPrac();
    EXPECT_EQ(np.tRAS, np.tRAS_base);
    EXPECT_EQ(np.tRP, np.tRP_base);
}

TEST(CounterUpdateTiming, QueuedNeedsTheRmwToFitOneRowCycle)
{
    const auto org = dram::Organization::tiny();
    CounterUpdateConfig queued;
    queued.mode = CounterUpdateMode::Queued;
    // Both presets construct, and queued banks run the base split.
    for (const auto& t : {dram::TimingParams::ddr5Prac(),
                          dram::TimingParams::ddr5NoPrac()}) {
        dram::DramDevice dev(org, t, 2, queued);
        EXPECT_EQ(dev.bankTiming().tRAS, t.tRAS_base);
        EXPECT_EQ(dev.bankTiming().tRP, t.tRP_base);
        EXPECT_EQ(dev.bankTiming().tRC, t.tRAS_base + t.tRP_base);
    }
    // An RMW longer than the conventional row cycle could hold up the
    // bank's next ACT, which the split alone does not model.
    dram::TimingParams slow = dram::TimingParams::ddr5Prac();
    slow.tRP = slow.tRP_base + slow.tRAS_base + slow.tRP_base + 1;
    slow.tRC = slow.tRAS + slow.tRP;
    EXPECT_DEATH(dram::DramDevice(org, slow, 2, queued),
                 "conventional row cycle");
    // Inline devices never take the split, so the check does not apply.
    dram::DramDevice inline_dev(org, slow);
    EXPECT_EQ(inline_dev.bankTiming().tRP, slow.tRP);
}

// --- Full-simulation contracts -----------------------------------------

TEST(CounterUpdateSim, InlineIsBitIdenticalAndExportsNoQueueStats)
{
    // The golden-pin contract: spelling out the inline default must not
    // change a byte of the result document.
    ScenarioConfig plain = simConfig("inline");
    ScenarioConfig unnamed;
    std::string err;
    ASSERT_TRUE(unnamed.set("source", "workload:429.mcf", &err)) << err;
    unnamed.cores = plain.cores;
    unnamed.insts = plain.insts;
    unnamed.llc_mb = plain.llc_mb;
    const std::string a = sim::runScenario(plain, 1).resultJson();
    const std::string b = sim::runScenario(unnamed, 1).resultJson();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.find("counter_update"), std::string::npos)
        << "inline result document polluted with counter-update stats";
}

TEST(CounterUpdateSim, QueuedRecoversRowCycleThroughput)
{
    // The whole point: off-critical-path counter updates run banks on
    // the conventional split, so an ACT-heavy run finishes no later —
    // and strictly earlier unless it never row-conflicts.
    ScenarioConfig inline_cfg = simConfig("inline");
    ScenarioConfig queued_cfg = simConfig("queued");
    ScenarioResult a = sim::runScenario(inline_cfg, 1);
    ScenarioResult b = sim::runScenario(queued_cfg, 1);
    EXPECT_GT(a.sim.stats.getOr("dram.acts", 0), 0.0);
    EXPECT_LT(b.sim.cycles, a.sim.cycles);
}

TEST(CounterUpdateSim, QueuedResultDocumentsArePinned)
{
    // FNV-1a of two queued result documents, so any change to queued
    // timing moves a hash. The values were first taken from a model
    // with a per-bank write-back queue (its ledger stats removed): the
    // bank split alone reproduces every cycle of it.
    ScenarioConfig mcf = simConfig("queued");
    std::string err;
    for (const auto& [key, value] :
         std::vector<std::pair<const char*, const char*>>{
             {"insts", "20000"},
             {"channels", "2"},
             {"mapping", "channel-striped"},
             {"recovery", "bank-isolated"}})
        ASSERT_TRUE(mcf.set(key, value, &err)) << err;
    ScenarioConfig dos;
    for (const auto& [key, value] :
         std::vector<std::pair<const char*, const char*>>{
             {"source", "attack:recovery-dos"},
             {"counter-update", "queued"},
             {"nbo", "8"},
             {"attack_cycles", "40000"}})
        ASSERT_TRUE(dos.set(key, value, &err)) << err;

    const ScenarioResult mcf_res = sim::runScenario(mcf, 1);
    const ScenarioResult dos_res = sim::runScenario(dos, 1);
    EXPECT_GT(mcf_res.sim.acts, 0u);
    EXPECT_GT(dos_res.stats.getOr("attack.alerts", 0), 0.0)
        << "recovery-dos point not alert-active";
    const std::string mcf_doc = mcf_res.resultJson();
    const std::string dos_doc = dos_res.resultJson();
    EXPECT_EQ(mcf_doc.find("counter_update"), std::string::npos);
    EXPECT_EQ(sim::fnv1a64(mcf_doc), 0x95876b299a5fe968ULL) << mcf_doc;
    EXPECT_EQ(sim::fnv1a64(dos_doc), 0x135ffcd8f5a84d2aULL) << dos_doc;
}

TEST(CounterUpdateSim, KeysValidateAndRoundTrip)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_EQ(cfg.get("counter-update"), "inline");
    EXPECT_FALSE(cfg.set("counter-update", "batched", &err));
    // The retired queue-model spellings are errors, not aliases: the
    // mode is an unknown value and its knobs are unknown keys.
    EXPECT_FALSE(cfg.set("counter-update", "coalesced", &err));
    EXPECT_EQ(err.rfind("counter-update='coalesced': ", 0), 0u) << err;
    for (const char* key : {"subarrays", "cuq_depth"}) {
        EXPECT_FALSE(cfg.set(key, "16", &err)) << key;
        EXPECT_NE(err.find("unknown config key"), std::string::npos)
            << err;
    }
    ASSERT_TRUE(cfg.set("counter-update", "queued", &err)) << err;
    ASSERT_TRUE(cfg.validate(&err)) << err;
    ScenarioConfig parsed;
    ASSERT_TRUE(ScenarioConfig::fromIniText(cfg.toIni(), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.get("counter-update"), "queued");
    // An INI line naming a retired key fails like any unknown key.
    for (const char* line : {"subarrays = 64\n", "cuq_depth = 16\n"})
        EXPECT_FALSE(ScenarioConfig::fromIniText(cfg.toIni() + line,
                                                 &parsed, &err))
            << line;
}
