/**
 * @file
 * Determinism suite for the epoch engine: multi-threaded runs must be
 * bit-identical to single-threaded ones — same SimResult JSON, same
 * per-channel chK.* stats — across channel counts, mapping schemes,
 * sweeps and the attack families. Thread count may only change wall
 * clock, never a single bit of simulation output.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/scenario.h"

using namespace qprac;
using sim::ScenarioConfig;
using sim::ScenarioResult;
using sim::SweepSpec;

namespace {

ScenarioConfig
baseConfig(int channels, const std::string& source)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", source, &err)) << err;
    cfg.channels = channels;
    cfg.mapping = channels > 1 ? "channel-striped" : "row-major";
    cfg.cores = 2;
    cfg.insts = 8'000;
    cfg.llc_mb = 2;
    return cfg;
}

/** Run with an explicit thread budget; returns the full result JSON. */
std::string
runWithThreads(ScenarioConfig cfg, int threads)
{
    ScenarioResult res = sim::runScenario(cfg, threads);
    // resultJson() covers cycles, IPC doubles, every stat key (incl.
    // the chK.* per-channel copies) — the complete observable output.
    return res.resultJson();
}

} // namespace

TEST(Determinism, ThreadedRunsMatchSingleThreadAcrossChannelCounts)
{
    for (int channels : {1, 2, 4}) {
        ScenarioConfig cfg = baseConfig(channels, "429.mcf");
        const std::string serial = runWithThreads(cfg, 1);
        for (int threads : {2, 4}) {
            const std::string threaded = runWithThreads(cfg, threads);
            EXPECT_EQ(serial, threaded)
                << "channels=" << channels << " threads=" << threads;
        }
    }
}

TEST(Determinism, PerChannelStatsBitIdenticalUnderThreading)
{
    ScenarioConfig cfg = baseConfig(4, "510.parest_r");
    ScenarioResult serial = sim::runScenario(cfg, 1);
    ScenarioResult threaded = sim::runScenario(cfg, 4);
    // Every chK.* key exists in both and matches exactly (doubles
    // compared bit-for-bit via ==; these are counter exports).
    int chan_keys = 0;
    for (const auto& [name, value] : serial.sim.stats.entries()) {
        if (name.rfind("ch", 0) != 0)
            continue;
        ++chan_keys;
        ASSERT_TRUE(threaded.sim.stats.has(name)) << name;
        EXPECT_EQ(value, threaded.sim.stats.get(name)) << name;
    }
    EXPECT_GT(chan_keys, 0);
    EXPECT_EQ(serial.sim.cycles, threaded.sim.cycles);
    EXPECT_EQ(serial.sim.toJson(), threaded.sim.toJson());
}

TEST(Determinism, RepeatedThreadedRunsAreStable)
{
    // Not just threads==1 equivalence: the same threaded config twice.
    ScenarioConfig cfg = baseConfig(2, "450.soplex");
    EXPECT_EQ(runWithThreads(cfg, 4), runWithThreads(cfg, 4));
}

TEST(Determinism, AttackFamilyUnaffectedByThreadBudget)
{
    // Attack families are event-level models that currently build no
    // System and consult no thread budget, so today this passes by
    // construction. It pins the contract: if an attack family ever
    // grows a threaded execution path, its output must stay
    // budget-independent like everything else behind runScenario.
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    cfg.nbo = 32;
    const std::string serial = runWithThreads(cfg, 1);
    EXPECT_EQ(serial, runWithThreads(cfg, 2));
    EXPECT_EQ(serial, runWithThreads(cfg, 4));
}

TEST(Determinism, SweepResultsIdenticalAcrossThreadBudgets)
{
    // Sweep-level fan-out composed with shard threading must still
    // emit byte-identical per-point results in enumerate() order.
    ScenarioConfig base = baseConfig(2, "429.mcf");
    base.insts = 5'000;
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(spec.add("nbo=32,64", &err)) << err;
    ASSERT_TRUE(spec.add("channels=1,2", &err)) << err;

    auto run_all = [&](int threads) {
        ScenarioConfig cfg = base;
        cfg.threads = threads;
        auto points = sim::runSweep(cfg, spec, &err);
        EXPECT_EQ(points.size(), 4u) << err;
        std::string out;
        for (const auto& p : points) {
            for (const auto& [key, value] : p.overrides)
                out += key + "=" + value + ";";
            out += p.result.resultJson() + "\n";
        }
        return out;
    };
    const std::string serial = run_all(1);
    EXPECT_EQ(serial, run_all(2));
    EXPECT_EQ(serial, run_all(4));
}

// --- Recovery policies (ctrl/recovery) --------------------------------

TEST(Determinism, RecoveryChannelStallIsTheDefaultBitIdentical)
{
    // recovery=channel-stall must be a no-op spelling of the default:
    // same cycles, same stats, bit for bit — on an alert-active config
    // (low NBO) where a recovery-path difference could not hide.
    for (int channels : {1, 2}) {
        ScenarioConfig def = baseConfig(channels, "510.parest_r");
        def.nbo = 8;
        ScenarioConfig stall = def;
        std::string err;
        ASSERT_TRUE(stall.set("recovery", "channel-stall", &err)) << err;
        EXPECT_EQ(sim::runScenario(def, 1).resultJson(),
                  sim::runScenario(stall, 1).resultJson())
            << "channels=" << channels;
    }
}

TEST(Determinism, BankIsolatedRecoveryActuallyChangesTheSimulation)
{
    // Plumbing proof: on the same alert-active config the isolated
    // policy must produce a different execution than channel-stall
    // (otherwise the axis silently no-ops).
    ScenarioConfig stall = baseConfig(1, "510.parest_r");
    stall.nbo = 8;
    stall.insts = 30'000; // long enough for PRAC counts to reach NBO
    ScenarioConfig isolated = stall;
    std::string err;
    ASSERT_TRUE(isolated.set("recovery", "bank-isolated", &err)) << err;
    ScenarioResult a = sim::runScenario(stall, 1);
    ScenarioResult b = sim::runScenario(isolated, 1);
    // Recoveries must actually have run for the comparison to mean
    // anything.
    EXPECT_GT(a.sim.stats.getOr("ctrl.alerts", 0), 0.0);
    EXPECT_GT(b.sim.stats.getOr("ctrl.alerts", 0), 0.0);
    EXPECT_NE(a.resultJson(), b.resultJson());
}

TEST(Determinism, IsolatedRecoveryDeterministicAcrossThreadsAndChannels)
{
    // Per-bank recovery state is shard-local; thread count must not
    // change a bit of it, at any channel count, for either policy.
    for (const char* recovery : {"bank-isolated", "group-isolated"}) {
        for (int channels : {1, 2, 4}) {
            ScenarioConfig cfg = baseConfig(channels, "510.parest_r");
            cfg.nbo = 8; // alert-active so recoveries actually run
            cfg.insts = 20'000;
            std::string err;
            ASSERT_TRUE(cfg.set("recovery", recovery, &err)) << err;
            const std::string serial = runWithThreads(cfg, 1);
            for (int threads : {2, 4})
                EXPECT_EQ(serial, runWithThreads(cfg, threads))
                    << recovery << " channels=" << channels
                    << " threads=" << threads;
        }
    }
}

TEST(Determinism, RecoveryAttacksUnaffectedByThreadBudget)
{
    // The recovery attack drivers run the serial MemorySystem tick
    // path; like every attack family their output must be
    // budget-independent.
    for (const char* source : {"attack:rfm-probe", "attack:recovery-dos"}) {
        ScenarioConfig cfg;
        std::string err;
        ASSERT_TRUE(cfg.set("source", source, &err)) << err;
        ASSERT_TRUE(cfg.set("channels", "2", &err)) << err;
        ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
        ASSERT_TRUE(cfg.set("attack_cycles", "40000", &err)) << err;
        const std::string serial = runWithThreads(cfg, 1);
        EXPECT_EQ(serial, runWithThreads(cfg, 4)) << source;
    }
}

// --- Subarray counter architecture (dram/counter_update) --------------

TEST(Determinism, QueuedCounterUpdatesBitIdenticalAcrossEngines)
{
    // The per-bank write-back queues live entirely inside the owning
    // shard and advance only at command time, so queued/coalesced runs
    // must be bit-identical across thread budgets, engine schedules
    // and channel counts — same bar as every other subsystem.
    for (const char* mode : {"queued", "coalesced"}) {
        for (int channels : {1, 2}) {
            for (const char* pipeline : {"off", "on"}) {
                ScenarioConfig cfg = baseConfig(channels, "429.mcf");
                std::string err;
                ASSERT_TRUE(cfg.set("counter-update", mode, &err)) << err;
                ASSERT_TRUE(cfg.set("pipeline", pipeline, &err)) << err;
                const std::string serial = runWithThreads(cfg, 1);
                for (int threads : {2, 4})
                    EXPECT_EQ(serial, runWithThreads(cfg, threads))
                        << mode << " channels=" << channels
                        << " pipeline=" << pipeline
                        << " threads=" << threads;
            }
        }
    }
}

TEST(Determinism, QueuedCounterUpdatesActuallyChangeTheSimulation)
{
    // Plumbing proof for the new axis: off-critical-path updates run
    // banks on the conventional split, so the execution must differ
    // from inline (otherwise the key silently no-ops).
    ScenarioConfig inline_cfg = baseConfig(1, "429.mcf");
    ScenarioConfig queued_cfg = baseConfig(1, "429.mcf");
    std::string err;
    ASSERT_TRUE(queued_cfg.set("counter-update", "queued", &err)) << err;
    EXPECT_NE(runWithThreads(inline_cfg, 1),
              runWithThreads(queued_cfg, 1));
}

TEST(Determinism, RecoveryAttacksUnderCoalescedCounterUpdates)
{
    // Satellite rerun of the PR 5 attack suite on the new counter
    // architecture: still thread-budget independent, and the leakage /
    // DoS observables must actually be measured (non-empty probe
    // phases) under coalesced updates.
    for (const char* source : {"attack:rfm-probe", "attack:recovery-dos"}) {
        ScenarioConfig cfg;
        std::string err;
        ASSERT_TRUE(cfg.set("source", source, &err)) << err;
        ASSERT_TRUE(cfg.set("channels", "2", &err)) << err;
        ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
        ASSERT_TRUE(cfg.set("counter-update", "coalesced", &err)) << err;
        ASSERT_TRUE(cfg.set("attack_cycles", "40000", &err)) << err;
        ScenarioResult res = sim::runScenario(cfg, 1);
        const std::string serial = res.resultJson();
        EXPECT_EQ(serial, runWithThreads(cfg, 4)) << source;
        // The drivers recorded real attack activity and victim probes.
        EXPECT_GT(res.stats.getOr("attack.attacker_acts", 0), 0.0)
            << source;
        if (std::string(source) == "attack:rfm-probe") {
            EXPECT_GT(res.stats.getOr("attack.near_probes", 0), 0.0);
            EXPECT_TRUE(res.stats.has("attack.leakage_signal"));
        } else {
            EXPECT_GT(res.stats.getOr("attack.victim_probes", 0), 0.0);
            EXPECT_TRUE(res.stats.has("attack.victim_slowdown"));
        }
    }
}

TEST(Determinism, ThreadsKeyValidatesAndSupportsAuto)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("threads", "auto", &err)) << err;
    EXPECT_EQ(cfg.threads, 0);
    EXPECT_TRUE(cfg.set("threads", "3", &err)) << err;
    EXPECT_EQ(cfg.threads, 3);
    EXPECT_FALSE(cfg.set("threads", "many", &err));
    EXPECT_FALSE(cfg.set("threads", "-1", &err));
    EXPECT_FALSE(cfg.set("threads", "5000", &err));
}

// --- Engine v2 (pipelined main phase) ----------------------------------

TEST(Determinism, PipelinedEngineBitIdenticalToSerialV1)
{
    // The heart of the engine v2 contract: pipeline=on must reproduce
    // the v1 serial engine (pipeline=off, threads=1) bit for bit, at
    // every channel and thread count.
    for (int channels : {1, 2, 4, 8}) {
        ScenarioConfig v1 = baseConfig(channels, "429.mcf");
        std::string err;
        ASSERT_TRUE(v1.set("pipeline", "off", &err)) << err;
        const std::string golden = runWithThreads(v1, 1);

        ScenarioConfig v2 = baseConfig(channels, "429.mcf");
        ASSERT_TRUE(v2.set("pipeline", "on", &err)) << err;
        for (int threads : {1, 2, 4})
            EXPECT_EQ(golden, runWithThreads(v2, threads))
                << "channels=" << channels << " threads=" << threads;
    }
}

TEST(Determinism, V1EngineThreadCountInvariant)
{
    // pipeline=off keeps the alternating schedule, whose shard phase
    // runs on the pool: the thread count must not change a bit.
    for (int channels : {2, 4}) {
        ScenarioConfig cfg = baseConfig(channels, "450.soplex");
        std::string err;
        ASSERT_TRUE(cfg.set("pipeline", "off", &err)) << err;
        const std::string serial = runWithThreads(cfg, 1);
        for (int threads : {2, 4})
            EXPECT_EQ(serial, runWithThreads(cfg, threads))
                << "channels=" << channels << " threads=" << threads;
    }
}

TEST(Determinism, PipelinedEngineDeterministicOnAlertActiveConfig)
{
    // Overlap + recovery interplay: an alert-active low-NBO config with
    // isolated recovery, pipelined, across thread counts.
    ScenarioConfig cfg = baseConfig(4, "510.parest_r");
    cfg.nbo = 8;
    cfg.insts = 20'000;
    std::string err;
    ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
    ASSERT_TRUE(cfg.set("pipeline", "on", &err)) << err;
    const std::string serial = runWithThreads(cfg, 1);
    for (int threads : {2, 4})
        EXPECT_EQ(serial, runWithThreads(cfg, threads))
            << "threads=" << threads;
}

TEST(Determinism, EngineKeysValidateAndRoundTrip)
{
    ScenarioConfig cfg;
    std::string err;
    for (const char* key : {"pipeline", "skip"}) {
        EXPECT_EQ(cfg.get(key), "auto") << key;
        EXPECT_TRUE(cfg.set(key, "on", &err)) << key << ": " << err;
        EXPECT_EQ(cfg.get(key), "on") << key;
        EXPECT_TRUE(cfg.set(key, "off", &err)) << key << ": " << err;
        EXPECT_EQ(cfg.get(key), "off") << key;
        EXPECT_TRUE(cfg.set(key, "auto", &err)) << key << ": " << err;
        EXPECT_FALSE(cfg.set(key, "maybe", &err)) << key;
    }
    // The retired threaded-core and work-stealing keys are unknown keys
    // now, whatever the value: a key that is accepted and then ignored
    // would lie.
    for (const char* key : {"corepar", "steal"}) {
        for (const char* value : {"on", "off", "auto"}) {
            err.clear();
            EXPECT_FALSE(cfg.set(key, value, &err)) << key << "=" << value;
            EXPECT_NE(err.find("unknown config key"), std::string::npos)
                << err;
        }
    }
    // INI round-trip carries the engine keys.
    ASSERT_TRUE(cfg.set("pipeline", "off", &err)) << err;
    ASSERT_TRUE(cfg.set("skip", "on", &err)) << err;
    ScenarioConfig parsed;
    ASSERT_TRUE(
        ScenarioConfig::fromIniText(cfg.toIni(), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.get("pipeline"), "off");
    EXPECT_EQ(parsed.get("skip"), "on");
    // ...and an INI line naming a retired key fails like any other
    // unknown key.
    EXPECT_FALSE(ScenarioConfig::fromIniText(cfg.toIni() + "corepar = off\n",
                                             &parsed, &err));
}

TEST(Determinism, EnginePoolDegreeNeverExceedsThreadBudget)
{
    // The sweep x engine nesting audit: even with the pipelined main
    // phase keeping the caller lane busy, a run must never use more
    // than its thread budget (innerThreadBudget hands out exact
    // slices).
    using sim::enginePoolDegree;
    for (int threads : {1, 2, 3, 4, 8}) {
        for (int channels : {1, 2, 4, 8}) {
            for (bool pipeline : {false, true}) {
                const int d = enginePoolDegree(threads, channels, pipeline);
                EXPECT_LE(d, std::max(1, threads));
                EXPECT_GE(d, 1);
            }
        }
    }
    // v1 shape preserved: no pipeline, degree caps at the channel count.
    EXPECT_EQ(enginePoolDegree(8, 2, false), 2);
    // Pipeline adds exactly the caller lane.
    EXPECT_EQ(enginePoolDegree(8, 2, true), 3);
}

TEST(Determinism, SweepReportsEngineThroughputBesideResults)
{
    // sim_cycles_per_sec lives beside each sweep point (never inside
    // the result document, which must stay machine-independent).
    ScenarioConfig base = baseConfig(1, "429.mcf");
    base.insts = 4'000;
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(spec.add("pipeline=off,on", &err)) << err;
    auto points = sim::runSweep(base, spec, &err);
    ASSERT_EQ(points.size(), 2u) << err;
    for (const auto& p : points) {
        EXPECT_GT(p.wall_ms, 0.0);
        EXPECT_GT(p.sim_cycles_per_sec, 0.0);
        // And the result JSON carries no timing keys.
        EXPECT_EQ(p.result.resultJson().find("wall_ms"),
                  std::string::npos);
        EXPECT_EQ(p.result.resultJson().find("sim_cycles_per_sec"),
                  std::string::npos);
    }
    // Identical simulation output, whatever the engine schedule.
    EXPECT_EQ(points[0].result.resultJson(),
              points[1].result.resultJson());
}
