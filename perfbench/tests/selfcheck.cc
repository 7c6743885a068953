/**
 * @file
 * Self-checks of the benchmark's outside-in tracing: the decorators
 * forward every virtual, the traced replicas reproduce the simulator's
 * result bytes, and the timer correction accounts for the whole chain.
 *
 *   cmake --build <dir> --target perfbench_selftest && <dir>/perfbench_selftest
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "layers.h"
#include "sim/result_cache.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace sim = qprac::sim;
namespace dram = qprac::dram;

sim::ScenarioConfig
withKeys(sim::ScenarioConfig cfg,
         const std::vector<std::pair<std::string, std::string>>& keys)
{
    for (const auto& [k, v] : keys) {
        std::string err;
        EXPECT_TRUE(cfg.set(k, v, &err)) << err;
    }
    return cfg;
}

class FakeTrace : public qprac::cpu::TraceSource
{
  public:
    explicit FakeTrace(std::vector<std::string>* log) : log_(log) {}
    bool next(qprac::cpu::TraceEntry& out) override
    {
        log_->push_back("next");
        out.bubbles = 7;
        out.addr = 0x40;
        return ++n_ < 3;
    }
    void warmupAddrs(std::vector<qprac::Addr>& out) const override
    {
        log_->push_back("warmupAddrs");
        out.push_back(0x80);
    }

  private:
    std::vector<std::string>* log_;
    int n_ = 0;
};

class FakeMitigation : public dram::RowhammerMitigation
{
  public:
    explicit FakeMitigation(std::vector<std::string>* log) : log_(log) {}
    void onActivate(int, int, qprac::ActCount, qprac::Cycle) override
    {
        log_->push_back("onActivate");
    }
    void onActivateBatch(const dram::ActEvent*, int n) override
    {
        log_->push_back("onActivateBatch" + std::to_string(n));
    }
    bool wantsAlert() const override
    {
        log_->push_back("wantsAlert");
        return true;
    }
    qprac::ActCount alertRiseThreshold() const override
    {
        log_->push_back("alertRiseThreshold");
        return 31;
    }
    void onRfm(int, dram::RfmScope, bool, qprac::Cycle) override
    {
        log_->push_back("onRfm");
    }
    void onRefresh(int, qprac::Cycle) override
    {
        log_->push_back("onRefresh");
    }
    int alertingBank() const override
    {
        log_->push_back("alertingBank");
        return 5;
    }
    bool bankWantsAlert(int bank) const override
    {
        log_->push_back("bankWantsAlert");
        return bank == 5;
    }
    const dram::MitigationStats& stats() const override
    {
        log_->push_back("stats");
        return stats_;
    }
    std::string name() const override
    {
        log_->push_back("name");
        return "fake";
    }
    int queueOccupancy() const override
    {
        log_->push_back("queueOccupancy");
        return 3;
    }
    std::int64_t maxTrackedCount() const override
    {
        log_->push_back("maxTrackedCount");
        return 42;
    }

  private:
    std::vector<std::string>* log_;
    dram::MitigationStats stats_;
};

TEST(PerfbenchDecorators, TraceSourceForwardsEveryVirtual)
{
    std::vector<std::string> log;
    LayerClock clock(0);
    TracedTraceSource t(std::make_unique<FakeTrace>(&log), clock);
    std::vector<qprac::Addr> warm;
    t.warmupAddrs(warm);
    qprac::cpu::TraceEntry e;
    EXPECT_TRUE(t.next(e));
    EXPECT_EQ(e.bubbles, 7u);
    EXPECT_TRUE(t.next(e));
    EXPECT_FALSE(t.next(e));
    EXPECT_EQ(warm, std::vector<qprac::Addr>{0x80});
    EXPECT_EQ(log, (std::vector<std::string>{"warmupAddrs", "next", "next",
                                             "next"}));
    EXPECT_EQ(t.records(), 2u);
    EXPECT_EQ(clock.calls(kTrace), 3u);
    EXPECT_EQ(clock.spans(kTrace), 3u);
}

TEST(PerfbenchDecorators, MitigationForwardsEveryVirtual)
{
    std::vector<std::string> log;
    LayerClock clock;
    MitigationCounts counts;
    auto factory = tracedFactory(
        [&log](dram::PracCounters*) {
            return std::make_unique<FakeMitigation>(&log);
        },
        clock, counts);
    auto m = factory(nullptr);
    ASSERT_NE(m, nullptr);
    const dram::ActEvent events[2] = {{0, 1, 2, 3}, {0, 4, 5, 6}};
    m->onActivate(0, 1, 2, 3);
    m->onActivateBatch(events, 2);
    EXPECT_TRUE(m->wantsAlert());
    EXPECT_EQ(m->alertRiseThreshold(), 31u);
    m->onRfm(0, dram::RfmScope::AllBank, true, 9);
    m->onRefresh(0, 10);
    EXPECT_EQ(m->alertingBank(), 5);
    EXPECT_TRUE(m->bankWantsAlert(5));
    EXPECT_FALSE(m->bankWantsAlert(4));
    m->stats();
    EXPECT_EQ(m->name(), "fake");
    EXPECT_EQ(m->queueOccupancy(), 3);
    EXPECT_EQ(m->maxTrackedCount(), 42);
    EXPECT_EQ(log, (std::vector<std::string>{
                       "onActivate", "onActivateBatch2", "wantsAlert",
                       "alertRiseThreshold", "onRfm", "onRefresh",
                       "alertingBank", "bankWantsAlert", "bankWantsAlert",
                       "stats", "name", "queueOccupancy",
                       "maxTrackedCount"}));
    EXPECT_EQ(counts.calls, 13u);
    EXPECT_EQ(counts.act_events, 3u);
    EXPECT_EQ(counts.polls, 4u);
    EXPECT_EQ(counts.poll_hits, 3u);
}

TEST(PerfbenchDecorators, NullFactoryStaysNull)
{
    LayerClock clock;
    MitigationCounts counts;
    EXPECT_FALSE(tracedFactory(nullptr, clock, counts));
    auto none = tracedFactory(
        [](dram::PracCounters*)
            -> std::unique_ptr<dram::RowhammerMitigation> { return nullptr; },
        clock, counts);
    EXPECT_EQ(none(nullptr), nullptr);
}

TEST(PerfbenchClock, CorrectedLayersPlusTimerCostCoverTheChain)
{
    LayerClock clock;
    const TimerCost cost = LayerClock::calibrate();
    EXPECT_GT(cost.lap, 0.0);
    EXPECT_GT(cost.nested_all, 0.0);
    volatile std::uint64_t sink = 0;
    const std::uint64_t t0 = nowNs();
    clock.start();
    for (int i = 0; i < 1000; ++i) {
        for (int j = 0; j < 3; ++j) {
            const std::uint64_t s = clock.enter(kTrace);
            sink = sink + static_cast<std::uint64_t>(j);
            clock.leave(kTrace, s);
        }
        clock.lap(kCore);
        const std::uint64_t s = clock.enter(kMit);
        sink = sink + 1;
        clock.leave(kMit, s);
        clock.lap(kShard);
    }
    const double chain = secondsSince(t0);
    double sum = clock.timerSeconds(cost);
    for (int l = 0; l < kLayerCount; ++l)
        sum += clock.busySeconds(static_cast<Layer>(l), cost);
    // Only the last clock read and the final subtraction are outside.
    EXPECT_NEAR(sum, chain, 1e-4);
    EXPECT_EQ(clock.laps(kCore), 1000u);
    EXPECT_EQ(clock.calls(kTrace), 3000u);
    // One call in 16 is timed: about 190 of 3000.
    EXPECT_GT(clock.spans(kTrace), 100u);
    EXPECT_LT(clock.spans(kTrace), 300u);
}

/** Traced System replica == System::run == runScenario, byte for byte. */
void
expectSystemReplica(const sim::ScenarioConfig& cfg)
{
    const SystemRun plain = runSystem(cfg);
    LayerClock clock;
    SystemLayerCounts counts;
    const SystemRun traced = runSystemTraced(cfg, clock, &counts);
    EXPECT_TRUE(plain.complete);
    EXPECT_TRUE(traced.complete);
    EXPECT_EQ(traced.doc, plain.doc);
    EXPECT_EQ(sim::runScenario(cfg).resultJson(), plain.doc);
    EXPECT_GT(counts.trace_records, 0u);
    EXPECT_GT(counts.core_ticks, 0u);
}

TEST(PerfbenchReplica, SystemBytesMatchForQpracAndMoatOn124Channels)
{
    for (const char* mitigation : {"qprac", "moat"})
        for (const char* channels : {"1", "2", "4"}) {
            SCOPED_TRACE(std::string(mitigation) + " channels=" + channels);
            expectSystemReplica(withKeys(
                systemScenario("mcf-4ch", 3),
                {{"mitigation", mitigation},
                 {"channels", channels},
                 {"nbo", "8"},
                 {"insts", "20000"}}));
        }
}

TEST(PerfbenchReplica, BenchmarkSystemWorkloadsAtShortLength)
{
    for (const char* w : {"mcf-4ch", "namd-4ch"}) {
        SCOPED_TRACE(w);
        expectSystemReplica(
            withKeys(systemScenario(w, 7), {{"insts", "30000"}}));
    }
}

TEST(PerfbenchReplica, DosStormBytesMatchRunScenario)
{
    const sim::ScenarioConfig cfg =
        withKeys(dosScenario(), {{"attack_cycles", "100000"}});
    LayerClock clock;
    MitigationCounts counts;
    EXPECT_EQ(runDosTraced(cfg, clock, &counts),
              sim::runScenario(cfg).resultJson());
    EXPECT_GT(counts.polls, 0u);
    EXPECT_GT(counts.act_events, 0u);
}

TEST(PerfbenchReplica, SweepLoopReproducesRunSweepDocuments)
{
    const std::string dir = ::testing::TempDir() + "perfbench_selfcheck";
    std::filesystem::remove_all(dir);
    const sim::ScenarioConfig base = waveBase();
    sim::SweepSpec spec;
    std::string err;
    for (const char* axis : {"mitigation=qprac,qprac+proactive,qprac-ideal",
                             "psq_size=1:2", "nbo=16,32", "r1=10,100"})
        ASSERT_TRUE(spec.add(axis, &err)) << err;
    const auto reference = sweepDocuments(sim::runSweep(base, spec, &err));
    ASSERT_EQ(reference.size(), 24u);

    LayerClock clock;
    SweepLayerCounts counts;
    EXPECT_EQ(runSweepTraced(base, spec, dir, clock, &counts), reference);
    EXPECT_EQ(counts.misses, 24u);
    EXPECT_EQ(runSweepTraced(base, spec, dir, clock, &counts), reference);
    EXPECT_EQ(counts.hits, 24u);

    sim::ResultCache cache(dir);
    EXPECT_EQ(sweepDocuments(sim::runSweep(base, spec, {&cache, false, ""},
                                           &err)),
              reference);
    std::filesystem::remove_all(dir);
}

TEST(PerfbenchWorkloads, WaveGridIsTheDocumentedOne)
{
    EXPECT_EQ(waveSpec().points(), 384u);
    EXPECT_EQ(waveBase().nmit, 1);
    EXPECT_EQ(waveBase().threads, 1);
    EXPECT_EQ(dosScenario().threads, 1);
    EXPECT_EQ(systemScenario("namd-4ch", 1).threads, 1);
}

} // namespace
