/**
 * @file
 * Cycle-skipping engine suite (PR 9). Two halves:
 *
 *  - Equivalence properties: skip=on must reproduce skip=off bit for
 *    bit — same resultJson() — across the determinism grid (channel
 *    counts, thread budgets, recovery policies, counter-update modes,
 *    attack families). The horizon contract makes skipping a pure
 *    engine optimization; these tests are the enforcement.
 *  - Horizon honesty: MemoryController::nextEventAt must never
 *    over-advertise. Dense-tick a controller and assert that no
 *    observable state (issued commands, fired completions, alerts,
 *    refreshes, RFMs) changes strictly before each advertised horizon.
 *    A component whose state changes before its horizon is a bug even
 *    if today's scheduler happens to mask it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/qprac.h"
#include "ctrl/memory_controller.h"
#include "obs/obs.h"
#include "sim/scenario.h"

using namespace qprac;
using core::Qprac;
using core::QpracConfig;
using ctrl::ControllerConfig;
using ctrl::MemoryController;
using ctrl::WakeSource;
using dram::AddressMapper;
using dram::DramDevice;
using dram::Organization;
using dram::TimingParams;
using sim::ScenarioConfig;
using sim::ScenarioResult;

namespace {

// --- Equivalence half -------------------------------------------------

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

std::string
runWithSkip(ScenarioConfig cfg, const char* skip, int threads = 1)
{
    std::string err;
    EXPECT_TRUE(cfg.set("skip", skip, &err)) << err;
    return sim::runScenario(cfg, threads).resultJson();
}

std::string
readFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

// --- Honesty half -----------------------------------------------------

Organization
smallOrg()
{
    Organization org;
    org.ranks = 1;
    org.bankgroups = 2;
    org.banks_per_group = 2;
    org.rows_per_bank = 1024;
    return org;
}

struct Fixture
{
    Fixture(const ControllerConfig& cfg, QpracConfig* qc = nullptr)
        : org(smallOrg()),
          timing(TimingParams::ddr5Prac()),
          mapper(org),
          dev(org, timing)
    {
        if (qc)
            mit = std::make_unique<Qprac>(*qc, &dev.pracCounters());
        dev.setMitigation(mit.get());
        mc = std::make_unique<MemoryController>(dev, cfg);
    }

    bool
    enqueueRead(int bank_flat, int row, Cycle now)
    {
        int bg = bank_flat / org.banks_per_group;
        int bank = bank_flat % org.banks_per_group;
        Addr a = mapper.makeAddr(0, 0, bg, bank, row, 0);
        return mc->enqueueRead(a, mapper.decode(a), 0, {}, now);
    }

    bool
    enqueueWrite(int bank_flat, int row, Cycle now)
    {
        int bg = bank_flat / org.banks_per_group;
        int bank = bank_flat % org.banks_per_group;
        Addr a = mapper.makeAddr(0, 0, bg, bank, row, 0);
        return mc->enqueueWrite(a, mapper.decode(a), 0, now);
    }

    /** Everything a skipped cycle is forbidden to change: issued
     * commands, completions, protocol events. Pure machine transitions
     * are allowed inside a span only if they are externally silent
     * until the next wake (the induction argument in
     * MemoryController::nextEventAt). */
    std::string
    fingerprint() const
    {
        const auto& d = dev.stats();
        const auto c = mc->stats();
        std::ostringstream os;
        os << d.acts << ' ' << d.pres << ' ' << d.reads << ' '
           << d.writes << ' ' << d.refs << ' ' << d.rfms << ' '
           << c.reads_done << ' ' << c.alerts << ' ' << c.rfms << ' '
           << c.policy_rfms << ' ' << c.refs;
        return os.str();
    }

    Organization org;
    TimingParams timing;
    AddressMapper mapper;
    DramDevice dev;
    std::unique_ptr<Qprac> mit;
    std::unique_ptr<MemoryController> mc;
};

/**
 * Dense-tick [0, limit) while auditing every advertised horizon: after
 * tick(t) the controller promises no observable event strictly before
 * nextEventAt(t), provided no enqueue arrives in between — so
 * @p enqueue_at only runs at span boundaries (exactly how the skipping
 * shard loop re-computes the horizon after every wake). Reports the
 * number of in-span cycles audited via @p audited_out, so callers can
 * assert the horizons actually had teeth (spans longer than one
 * cycle). Void so gtest ASSERTs can abort it.
 */
template <typename EnqueueFn>
void
auditHorizons(Fixture& f, Cycle limit, EnqueueFn enqueue_at,
              std::uint64_t* audited_out = nullptr)
{
    std::uint64_t audited = 0;
    Cycle t = 0;
    while (t < limit) {
        enqueue_at(t);
        f.mc->tick(t);
        const Cycle h = f.mc->nextEventAt(t);
        ASSERT_GT(h, t) << "horizon must be strictly in the future";
        const std::string fp = f.fingerprint();
        const Cycle stop = std::min(h, limit);
        for (Cycle u = t + 1; u < stop; ++u) {
            f.mc->tick(u);
            ++audited;
            ASSERT_EQ(f.fingerprint(), fp)
                << "observable state changed at cycle " << u
                << " before the horizon " << h << " advertised at " << t;
        }
        t = std::max(stop, t + 1);
    }
    if (audited_out)
        *audited_out = audited;
}

} // namespace

// --- skip=on is byte-identical to skip=off ----------------------------

TEST(EngineSkip, ByteIdenticalAcrossChannelsAndThreads)
{
    for (int channels : {1, 2, 4}) {
        ScenarioConfig cfg = baseConfig(channels, "429.mcf");
        const std::string golden = runWithSkip(cfg, "off", 1);
        for (int threads : {1, 2, 4})
            EXPECT_EQ(golden, runWithSkip(cfg, "on", threads))
                << "channels=" << channels << " threads=" << threads;
    }
}

TEST(EngineSkip, ByteIdenticalUnderRecoveryPolicies)
{
    // Alert-active (low NBO) so recoveries actually run: skipping must
    // wake for every quiesce / pump transition or these diverge.
    for (const char* recovery :
         {"channel-stall", "bank-isolated", "group-isolated"}) {
        ScenarioConfig cfg = baseConfig(2, "510.parest_r");
        cfg.nbo = 8;
        cfg.insts = 20'000;
        std::string err;
        ASSERT_TRUE(cfg.set("recovery", recovery, &err)) << err;
        ASSERT_TRUE(cfg.set("skip", "off", &err)) << err;
        ScenarioResult dense = sim::runScenario(cfg, 1);
        EXPECT_GT(dense.sim.stats.getOr("ctrl.alerts", 0), 0.0)
            << recovery << ": config not alert-active, test is vacuous";
        ASSERT_TRUE(cfg.set("skip", "on", &err)) << err;
        for (int threads : {1, 4})
            EXPECT_EQ(dense.resultJson(),
                      sim::runScenario(cfg, threads).resultJson())
                << recovery << " threads=" << threads;
    }
}

TEST(EngineSkip, ByteIdenticalUnderCounterUpdateModes)
{
    for (const char* mode : {"queued", "coalesced"}) {
        for (int channels : {1, 2}) {
            ScenarioConfig cfg = baseConfig(channels, "429.mcf");
            std::string err;
            ASSERT_TRUE(cfg.set("counter-update", mode, &err)) << err;
            const std::string dense = runWithSkip(cfg, "off", 1);
            EXPECT_EQ(dense, runWithSkip(cfg, "on", 1))
                << mode << " channels=" << channels;
            EXPECT_EQ(dense, runWithSkip(cfg, "on", 4))
                << mode << " channels=" << channels;
        }
    }
}

TEST(EngineSkip, ByteIdenticalOnAttackFamilies)
{
    // The recovery drivers run the serial MemorySystem::tick path,
    // which under skip=on leaves a shard asleep until its horizon. The
    // result, the trace file and the metrics summary must match the
    // dense reference byte for byte across recovery policies, channel
    // counts and counter architectures, and skip=on must really skip.
    ScenarioConfig base;
    std::string err;
    for (const auto& [key, value] :
         std::vector<std::pair<const char*, const char*>>{
             {"nbo", "8"},
             {"attack_cycles", "30000"},
             {"trace", "all"},
             {"metrics-interval", "5000"}})
        ASSERT_TRUE(base.set(key, value, &err)) << err;
    sim::SweepSpec grid;
    for (const char* axis :
         {"source=attack:rfm-probe,attack:recovery-dos",
          "recovery=channel-stall,bank-isolated,group-isolated",
          "channels=1,2", "counter-update=inline,queued"})
        ASSERT_TRUE(grid.add(axis, &err)) << err;
    int n = 0;
    for (const auto& point : grid.enumerate()) {
        ScenarioConfig cfg = base;
        std::string where;
        for (const auto& [key, value] : point) {
            ASSERT_TRUE(cfg.set(key, value, &err)) << err;
            where += key + "=" + value + " ";
        }
        // One path for both runs: the metrics report names it.
        const std::string path = testing::TempDir() + "skip_attack_" +
                                 std::to_string(n++) + ".json";
        ASSERT_TRUE(cfg.set("trace-out", path, &err)) << err;
        ScenarioResult runs[2];
        std::string traces[2];
        for (int i = 0; i < 2; ++i) {
            ASSERT_TRUE(cfg.set("skip", i ? "on" : "off", &err)) << err;
            runs[i] = sim::runScenario(cfg, 1);
            traces[i] = readFile(path);
            std::remove(path.c_str());
        }
        EXPECT_GT(runs[0].stats.getOr("attack.alerts", 0), 0.0)
            << where << ": not alert-active, test is vacuous";
        EXPECT_EQ(runs[0].resultJson(), runs[1].resultJson()) << where;
        EXPECT_FALSE(traces[0].empty()) << where;
        EXPECT_EQ(traces[0], traces[1]) << where;
        ASSERT_TRUE(runs[0].obs && runs[1].obs) << where;
        EXPECT_EQ(runs[0].obs->report(), runs[1].obs->report()) << where;
        EXPECT_EQ(runs[0].sim.skip.cycles_skipped, 0u) << where;
        EXPECT_GT(runs[1].sim.skip.cycles_skipped, 0u) << where;
    }
    EXPECT_EQ(n, 24);

    // An event-level family has no memory system: the key is inert.
    ScenarioConfig wave;
    ASSERT_TRUE(wave.set("source", "attack:wave", &err)) << err;
    wave.nbo = 32;
    EXPECT_EQ(runWithSkip(wave, "off"), runWithSkip(wave, "on"));
}

TEST(EngineSkip, SkipKeyValidatesAndRoundTrips)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_EQ(cfg.get("skip"), "auto");
    EXPECT_TRUE(cfg.set("skip", "on", &err)) << err;
    EXPECT_EQ(cfg.get("skip"), "on");
    EXPECT_TRUE(cfg.set("skip", "off", &err)) << err;
    EXPECT_EQ(cfg.get("skip"), "off");
    EXPECT_FALSE(cfg.set("skip", "maybe", &err));
    ScenarioConfig parsed;
    ASSERT_TRUE(ScenarioConfig::fromIniText(cfg.toIni(), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.get("skip"), "off");
}

TEST(EngineSkip, SkipActuallySkipsAndCountsWakes)
{
    ScenarioConfig cfg = baseConfig(2, "429.mcf");
    std::string err;
    ASSERT_TRUE(cfg.set("skip", "on", &err)) << err;
    ScenarioResult on = sim::runScenario(cfg, 1);
    // The engine really jumped (an idle-heavy workload has dead spans),
    // and attributed every wake.
    EXPECT_GT(on.sim.skip.cycles_skipped, 0u);
    const auto& sk = on.sim.skip;
    EXPECT_GT(sk.wakes_command + sk.wakes_refresh + sk.wakes_recovery +
                  sk.wakes_mailbox + sk.wakes_epoch,
              0u);
    // Counter-update drains are command-lazy: never a wake source.
    EXPECT_EQ(sk.wakes_cuq, 0u);
    // Off = dense: all counters stay zero.
    ASSERT_TRUE(cfg.set("skip", "off", &err)) << err;
    ScenarioResult off = sim::runScenario(cfg, 1);
    EXPECT_EQ(off.sim.skip.cycles_skipped, 0u);
    EXPECT_EQ(off.sim.skip.wakes_command, 0u);
    // And the stats never leak into the result document.
    EXPECT_EQ(on.resultJson().find("cycles_skipped"), std::string::npos);
    EXPECT_EQ(on.resultJson(), off.resultJson());
}

// --- nextEventAt never over-advertises --------------------------------

TEST(EngineSkipHorizon, IdleControllerSleepsUntilRefresh)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    f.mc->tick(0);
    WakeSource why = WakeSource::CommandReady;
    const Cycle h = f.mc->nextEventAt(0, &why);
    // Nothing queued: the only concern is the tREFI deadline, and the
    // horizon is a bulk jump, not a token now+1.
    EXPECT_EQ(why, WakeSource::Refresh);
    EXPECT_GT(h, static_cast<Cycle>(f.timing.tREFI) / 2);
    EXPECT_LE(h, static_cast<Cycle>(f.timing.tREFI) + 1);
}

TEST(EngineSkipHorizon, HonestOverQuietDrainWithRefresh)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    const Cycle limit = static_cast<Cycle>(f.timing.tREFI) * 3;
    std::uint64_t audited = 0;
    auditHorizons(
        f, limit,
        [&](Cycle t) {
            if (t != 0)
                return;
            // A front-loaded burst: hits, misses, conflicts and writes,
            // then a long drained tail crossing refresh deadlines.
            for (int i = 0; i < 8; ++i)
                ASSERT_TRUE(f.enqueueRead(i % 4, 100 + 64 * i, t));
            for (int i = 0; i < 6; ++i)
                ASSERT_TRUE(f.enqueueWrite(i % 4, 500 + 64 * i, t));
        },
        &audited);
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_GE(f.mc->stats().refs, 2u);
    // Most of the window was provably dead (that is the whole point).
    EXPECT_GT(audited, static_cast<std::uint64_t>(limit) / 2);
}

TEST(EngineSkipHorizon, HonestUnderAboRecoveryFlow)
{
    ControllerConfig cfg;
    cfg.abo.enabled = true;
    cfg.abo.nmit = 2;
    QpracConfig qc = QpracConfig::base(4, 2); // alert after 4 ACTs
    Fixture f(cfg, &qc);
    // Hammer two alternating rows so every access misses and the ABO
    // machine walks Idle -> Window -> Quiesce -> Pumping repeatedly.
    int issued = 0;
    std::uint64_t audited = 0;
    auditHorizons(
        f, 30'000,
        [&](Cycle t) {
            if (issued < 40 && t >= static_cast<Cycle>(issued) * 700) {
                ASSERT_TRUE(
                    f.enqueueRead(0, (issued % 2) ? 100 : 300, t));
                ++issued;
            }
        },
        &audited);
    if (HasFatalFailure())
        return;
    // The recovery path genuinely ran under the audit.
    EXPECT_GE(f.mc->stats().alerts, 1u);
    EXPECT_GE(f.mc->stats().rfms, 2u);
    EXPECT_GT(audited, 0u);
}

TEST(EngineSkipHorizon, HonestUnderPolicyRfmPacing)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    cfg.rfm_policy.acts_per_rfm = 4;
    cfg.rfm_policy.scope = dram::RfmScope::AllBank;
    cfg.rfm_policy.per_bank = false;
    Fixture f(cfg);
    // Front-loaded: 16 row-conflicting reads (4 rows in each of 4
    // banks) -> 16 ACTs -> ~4 channel-aggregate policy RFMs, all
    // triggered and pumped while the audit is watching.
    auditHorizons(f, 12'000, [&](Cycle t) {
        if (t != 0)
            return;
        for (int i = 0; i < 16; ++i)
            ASSERT_TRUE(f.enqueueRead(i % 4, 100 + 64 * i, t));
    });
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_GE(f.mc->stats().policy_rfms, 3u);
}

TEST(EngineSkipHorizon, HonestUnderPerBankRfmPacing)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    cfg.rfm_policy.acts_per_rfm = 3;
    cfg.rfm_policy.scope = dram::RfmScope::PerBank;
    cfg.rfm_policy.per_bank = true;
    Fixture f(cfg);
    // 9 row-conflicting reads to bank 0 -> 9 ACTs -> 3 per-bank RFMs
    // (RAA counter trips every 3), exercising the pending-RFM
    // coverage-drain concern in nextEventAt.
    auditHorizons(f, 10'000, [&](Cycle t) {
        if (t != 0)
            return;
        for (int i = 0; i < 9; ++i)
            ASSERT_TRUE(f.enqueueRead(0, 100 + 64 * i, t));
    });
    if (HasFatalFailure())
        return;
    EXPECT_TRUE(f.mc->drained());
    EXPECT_GE(f.mc->stats().policy_rfms, 2u);
}

namespace {

/**
 * Isolated recovery under an alert storm: all four banks are hammered
 * together with row conflicts, so their per-bank recoveries overlap,
 * for over two tREFI, so REFs come due while recoveries are in flight.
 * Audits the per-bank recovery concern of nextEventAt and the demand
 * gate on its bank sweeps (quiesce PREs, REF drains). While any bank
 * wants an alert the per-bank engine's horizon is the next cycle, so
 * the audited spans are the gaps between and around recoveries.
 */
void
auditIsolatedRecovery(ctrl::RecoveryKind kind)
{
    ControllerConfig cfg;
    cfg.abo.enabled = true;
    cfg.abo.nmit = 2;
    cfg.abo.recovery = kind;
    QpracConfig qc = QpracConfig::base(4, 2); // alert after 4 ACTs
    Fixture f(cfg, &qc);
    const Cycle trefi = static_cast<Cycle>(f.timing.tREFI);
    int sent = 0;
    std::uint64_t refs_seen = 0;
    bool was_busy = false;
    bool ref_in_recovery = false;
    std::uint64_t audited = 0;
    auditHorizons(
        f, trefi * 5 / 2,
        [&](Cycle t) {
            const ctrl::BankRecoveryEngine* engine =
                f.mc->abo().bankRecovery();
            const bool busy = engine && !engine->idle();
            const std::uint64_t refs = f.mc->stats().refs;
            if (refs > refs_seen && busy && was_busy)
                ref_in_recovery = true;
            refs_seen = refs;
            was_busy = busy;
            // Top the queue up round-robin over the banks; each bank
            // alternates between two rows, so every read is an ACT.
            while (t < trefi * 9 / 4 && f.mc->readQueueDepth() < 8) {
                ASSERT_TRUE(
                    f.enqueueRead(sent % 4, 100 + 200 * (sent / 4 % 2), t));
                ++sent;
            }
        },
        &audited);
    if (::testing::Test::HasFatalFailure())
        return;
    const ctrl::BankRecoveryEngine* engine = f.mc->abo().bankRecovery();
    ASSERT_NE(engine, nullptr);
    EXPECT_GE(engine->peakConcurrent(), 2) << "recoveries never overlapped";
    EXPECT_GE(f.mc->stats().alerts, 8u);
    EXPECT_GE(f.mc->stats().refs, 2u);
    EXPECT_TRUE(ref_in_recovery) << "no REF landed inside a recovery";
    EXPECT_GT(audited, 0u);
}

} // namespace

TEST(EngineSkipHorizon, HonestUnderBankIsolatedRecovery)
{
    auditIsolatedRecovery(ctrl::RecoveryKind::BankIsolated);
}

TEST(EngineSkipHorizon, HonestUnderGroupIsolatedRecovery)
{
    auditIsolatedRecovery(ctrl::RecoveryKind::GroupIsolated);
}
