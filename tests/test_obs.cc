/**
 * @file
 * Observability layer tests: histogram/percentile rules shared with
 * common/stats, event-ring drop accounting, category filtering, the
 * Perfetto/CSV exports, and — the load-bearing contract — byte-identical
 * trace and metrics streams across every engine mode (threads x
 * pipeline x skip), mirroring the simulation-result determinism suite.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "sim/scenario_cli.h"
#include "sim/scenario_hash.h"

using namespace qprac;
using obs::EventRecorder;
using obs::EventSink;
using obs::RecorderConfig;
using sim::ScenarioConfig;
using sim::ScenarioResult;

namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    std::ostringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

} // namespace

// --- shared stats helpers --------------------------------------------------

TEST(Stats, PercentileRankIsNearestRank)
{
    EXPECT_EQ(percentileRank(0, 50.0), 0u);
    EXPECT_EQ(percentileRank(1, 50.0), 0u);
    EXPECT_EQ(percentileRank(100, 0.0), 0u);
    EXPECT_EQ(percentileRank(100, 100.0), 99u);
    EXPECT_EQ(percentileRank(100, 50.0), 49u);
    EXPECT_EQ(percentileRank(100, 99.0), 98u);
    EXPECT_EQ(percentileRank(10, 95.0), 9u);
    EXPECT_EQ(percentileRank(10, 91.0), 9u);
    EXPECT_EQ(percentileRank(10, 90.0), 8u);
}

TEST(Stats, PercentileSortedAndOfAgree)
{
    std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(percentileOf(v, 50.0), 3.0);
    std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileSorted(sorted, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileSorted({}, 50.0), 0.0);
}

TEST(Stats, StatSetMergeAccumulates)
{
    StatSet a;
    a.set("x", 2.0);
    a.set("y", 3.0);
    StatSet b;
    b.set("y", 4.0);
    b.set("z", 5.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 2.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 7.0);
    EXPECT_DOUBLE_EQ(a.get("z"), 5.0);
}

// --- histogram -------------------------------------------------------------

TEST(ObsHistogram, Log2BucketsAndNearestRankPercentiles)
{
    obs::Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
    // Rank 49 lands in the [32, 64) bucket -> upper edge 63.
    EXPECT_EQ(h.percentile(50.0), 63u);
    // Rank 98 lands in the [64, 128) bucket, clamped to the observed
    // max.
    EXPECT_EQ(h.percentile(99.0), 100u);
    EXPECT_EQ(h.percentile(100.0), 100u);
}

TEST(ObsHistogram, ZeroBucketAndEmpty)
{
    obs::Histogram h;
    EXPECT_EQ(h.percentile(50.0), 0u);
    h.record(0);
    h.record(0);
    EXPECT_EQ(h.percentile(99.0), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(ObsHistogram, MergeMatchesCombinedRecording)
{
    obs::Histogram a, b, both;
    for (std::uint64_t v = 0; v < 50; ++v) {
        a.record(v);
        both.record(v);
    }
    for (std::uint64_t v = 50; v < 200; v += 3) {
        b.record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.max(), both.max());
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_EQ(a.percentile(p), both.percentile(p)) << p;
}

// --- category mask ---------------------------------------------------------

TEST(ObsCategories, ParseAndCanonicalRoundTrip)
{
    std::uint32_t mask = 0;
    std::string err;
    ASSERT_TRUE(obs::parseCategoryMask("off", &mask, &err));
    EXPECT_EQ(mask, 0u);
    ASSERT_TRUE(obs::parseCategoryMask("all", &mask, &err));
    EXPECT_EQ(mask, obs::kAllCategories);
    ASSERT_TRUE(obs::parseCategoryMask("cmd,recovery", &mask, &err));
    EXPECT_EQ(mask, obs::kCmd | obs::kRecovery);

    // Canonical spelling is order-independent and re-parses to the
    // same mask.
    std::uint32_t mask2 = 0;
    ASSERT_TRUE(obs::parseCategoryMask("recovery,cmd", &mask2, &err));
    EXPECT_EQ(obs::categoryMaskToString(mask),
              obs::categoryMaskToString(mask2));
    std::uint32_t reparsed = 0;
    ASSERT_TRUE(obs::parseCategoryMask(obs::categoryMaskToString(mask),
                                       &reparsed, &err));
    EXPECT_EQ(reparsed, mask);
    EXPECT_EQ(obs::categoryMaskToString(0), "off");
    EXPECT_EQ(obs::categoryMaskToString(obs::kAllCategories), "all");

    EXPECT_FALSE(obs::parseCategoryMask("cmd,bogus", &mask, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
}

// --- event ring ------------------------------------------------------------

TEST(ObsEventSink, CategoryFilterDropsUnwantedRecords)
{
    EventSink sink(obs::kCmd | obs::kAbo, 16);
    EXPECT_TRUE(sink.wants(obs::kCmd));
    EXPECT_FALSE(sink.wants(obs::kRefresh));
    sink.record(obs::kCmd, 10, "act");
    sink.record(obs::kRefresh, 11, "ref");   // filtered
    sink.recordSpan(obs::kAbo, 12, 20, "abo-window");
    sink.recordSpan(obs::kPsq, 13, 14, "psq"); // filtered
    EXPECT_EQ(sink.total(), 2u);
    EXPECT_EQ(sink.dropped(), 0u);
    auto kept = sink.drain();
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_STREQ(kept[0].second.name, "act");
    EXPECT_EQ(kept[1].second.dur, 8u);
}

TEST(ObsEventSink, RingOverflowKeepsLastAndCountsDrops)
{
    EventSink sink(obs::kAllCategories, 4);
    for (Cycle c = 0; c < 10; ++c)
        sink.record(obs::kCmd, c, "act");
    // No silent truncation: every accepted event is accounted for.
    EXPECT_EQ(sink.total(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    auto kept = sink.drain();
    ASSERT_EQ(kept.size(), 4u);
    // The flight recorder keeps the LAST events, in order, with their
    // original sequence numbers.
    for (std::size_t i = 0; i < kept.size(); ++i) {
        EXPECT_EQ(kept[i].first, 6u + i);
        EXPECT_EQ(kept[i].second.cycle, 6u + i);
    }
}

// --- recorder exports ------------------------------------------------------

TEST(ObsRecorder, PerfettoExportIsValidJsonWithDropAccounting)
{
    RecorderConfig rc;
    rc.mask = obs::kAllCategories;
    rc.ring_capacity = 8;
    EventRecorder rec(rc, 2);
    ASSERT_NE(rec.sink(0), nullptr);
    ASSERT_NE(rec.sink(1), nullptr);
    ASSERT_NE(rec.driverSink(), nullptr);
    for (Cycle c = 0; c < 20; ++c)
        rec.sink(0)->record(obs::kCmd, c, "act", "bank", 3);
    rec.sink(1)->recordSpan(obs::kRecovery, 5, 9, "bank-recovery");
    rec.driverSink()->record(obs::kAttack, 7, "probe", "latency", 123);

    EXPECT_EQ(rec.totalRecorded(), 22u);
    EXPECT_EQ(rec.totalDropped(), 12u);

    const std::string json = rec.toPerfettoJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(json, &doc, &err)) << err;
    const JsonValue* other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("events")->asU64(), 22u);
    EXPECT_EQ(other->find("dropped")->asU64(), 12u);
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // 3 metadata lanes + 8 kept cmd + 1 recovery + 1 attack.
    EXPECT_EQ(events->items.size(), 13u);

    const std::string csv = rec.toCsv();
    EXPECT_NE(csv.find("recovery,bank-recovery"), std::string::npos);
    EXPECT_NE(csv.find("# events=22 dropped=12"), std::string::npos);
}

TEST(ObsRecorder, MergeOrdersByCycleThenShard)
{
    RecorderConfig rc;
    rc.mask = obs::kAllCategories;
    EventRecorder rec(rc, 2);
    rec.sink(1)->record(obs::kCmd, 5, "b");
    rec.sink(0)->record(obs::kCmd, 5, "a");
    rec.sink(0)->record(obs::kCmd, 2, "first");
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(rec.toPerfettoJson(), &doc, &err)) << err;
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::vector<std::string> names;
    for (const JsonValue& e : events->items)
        if (e.find("ph")->text != "M")
            names.push_back(e.find("name")->text);
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "first");
    EXPECT_EQ(names[1], "a"); // same cycle: shard 0 before shard 1
    EXPECT_EQ(names[2], "b");
}

// --- scenario integration --------------------------------------------------

namespace {

ScenarioConfig
tracedConfig(const std::string& trace, const std::string& out_path)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", "429.mcf", &err)) << err;
    cfg.channels = 2;
    cfg.mapping = "channel-striped";
    cfg.cores = 2;
    cfg.insts = 8'000;
    cfg.llc_mb = 2;
    EXPECT_TRUE(cfg.set("trace", trace, &err)) << err;
    EXPECT_TRUE(cfg.set("trace-out", out_path, &err)) << err;
    EXPECT_TRUE(cfg.set("metrics-interval", "2000", &err)) << err;
    return cfg;
}

} // namespace

TEST(ObsScenario, TraceKeysAreHashExcluded)
{
    ScenarioConfig plain;
    std::string err;
    ASSERT_TRUE(plain.set("source", "429.mcf", &err)) << err;
    ScenarioConfig traced = plain;
    ASSERT_TRUE(traced.set("trace", "all", &err)) << err;
    ASSERT_TRUE(traced.set("trace-out", "/tmp/x.json", &err)) << err;
    ASSERT_TRUE(traced.set("metrics-interval", "123", &err)) << err;
    EXPECT_EQ(sim::scenarioHash(plain), sim::scenarioHash(traced));
    EXPECT_EQ(sim::scenarioCanonicalKey(plain),
              sim::scenarioCanonicalKey(traced));
}

TEST(ObsScenario, TraceBytesIdenticalAcrossEngineGrid)
{
    // The tentpole contract: the merged event stream (and the sampled
    // counter rows embedded in it) is byte-identical across threads x
    // pipeline x skip, exactly like the simulation result.
    std::string reference;
    int n = 0;
    for (int threads : {1, 2, 4}) {
        for (const char* skip : {"on", "off"}) {
            for (const char* pipeline : {"on", "off"}) {
                const std::string path =
                    testing::TempDir() + "obs_grid_" +
                    std::to_string(n++) + ".json";
                ScenarioConfig cfg = tracedConfig("all", path);
                std::string err;
                ASSERT_TRUE(cfg.set("skip", skip, &err)) << err;
                ASSERT_TRUE(cfg.set("pipeline", pipeline, &err)) << err;
                ScenarioResult res = sim::runScenario(cfg, threads);
                ASSERT_TRUE(res.obs != nullptr);
                EXPECT_EQ(res.obs->trace_path, path);
                const std::string bytes = readFile(path);
                EXPECT_TRUE(jsonValid(bytes));
                if (reference.empty())
                    reference = bytes;
                else
                    EXPECT_EQ(bytes, reference)
                        << "threads=" << threads << " skip=" << skip
                        << " pipeline=" << pipeline;
                std::remove(path.c_str());
            }
        }
    }
    EXPECT_FALSE(reference.empty());
}

TEST(ObsScenario, TracingDoesNotChangeTheResult)
{
    const std::string path = testing::TempDir() + "obs_neutral.json";
    ScenarioConfig traced = tracedConfig("all", path);
    ScenarioConfig plain = traced;
    std::string err;
    ASSERT_TRUE(plain.set("trace", "off", &err)) << err;
    ASSERT_TRUE(plain.set("metrics-interval", "off", &err)) << err;
    ScenarioResult rt = sim::runScenario(traced, 2);
    ScenarioResult rp = sim::runScenario(plain, 2);
    EXPECT_EQ(rt.resultJson(), rp.resultJson());
    EXPECT_TRUE(rp.obs == nullptr);
    std::remove(path.c_str());
}

TEST(ObsScenario, CategoryFilterRestrictsTheTrace)
{
    const std::string path = testing::TempDir() + "obs_filtered.json";
    ScenarioConfig cfg = tracedConfig("cmd", path);
    ScenarioResult res = sim::runScenario(cfg, 1);
    ASSERT_TRUE(res.obs != nullptr);
    EXPECT_EQ(obs::categoryMaskToString(res.obs->mask), "cmd");
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(path), &doc, &err)) << err;
    const JsonValue* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::uint64_t cmds = 0;
    for (const JsonValue& e : events->items) {
        const std::string& ph = e.find("ph")->text;
        if (ph != "X" && ph != "i")
            continue; // metadata and counter rows carry no category
        EXPECT_EQ(e.find("cat")->text, "cmd");
        ++cmds;
    }
    EXPECT_GT(cmds, 0u);
    // Ring capacity may have dropped older events from the file, but
    // the summary counts every accepted one.
    EXPECT_GE(res.obs->per_category[0], cmds); // index 0 = cmd
    EXPECT_EQ(res.obs->events - res.obs->dropped, cmds);
    std::remove(path.c_str());
}

TEST(ObsScenario, MetricsSummaryTracksFollowTheCanonicalOrder)
{
    const std::string path = testing::TempDir() + "obs_metrics.json";
    ScenarioConfig cfg = tracedConfig("off", path);
    ScenarioResult res = sim::runScenario(cfg, 1);
    ASSERT_TRUE(res.obs != nullptr);
    EXPECT_EQ(res.obs->mask, 0u); // trace off, metrics on
    EXPECT_TRUE(res.obs->trace_path.empty());
    const auto& names = obs::metricsTrackNames();
    ASSERT_EQ(res.obs->tracks.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(res.obs->tracks[i].name, names[i]);
        EXPECT_GT(res.obs->tracks[i].samples, 0u);
    }
    EXPECT_GT(res.obs->read_latency.count(), 0u);
}

// --- CLI surface -----------------------------------------------------------

namespace {

std::string
runCli(const std::vector<std::string>& args, int expect_status = 0)
{
    std::string out;
    std::string err;
    int status = sim::runQpracSimCli(args, &out, &err);
    EXPECT_EQ(status, expect_status) << err;
    return out;
}

const std::vector<std::string> kSmallRun = {
    "--workload", "450.soplex", "--insts", "6000", "--cores", "2",
};

std::vector<std::string>
withFlags(std::vector<std::string> extra)
{
    std::vector<std::string> args = kSmallRun;
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

} // namespace

TEST(ObsCli, ProfilePrintsAllSections)
{
    const std::string out = runCli(withFlags({"--profile"}));
    EXPECT_NE(out.find("profile: engine"), std::string::npos);
    EXPECT_NE(out.find("profile: cache"), std::string::npos);
    EXPECT_NE(out.find("profile: wall time"), std::string::npos);
    EXPECT_NE(out.find("cycles skipped"), std::string::npos);
    EXPECT_NE(out.find("load hit %"), std::string::npos);
}

TEST(ObsCli, ProfileSectionSelectionAndAlias)
{
    const std::string engine =
        runCli(withFlags({"--profile=engine"}));
    EXPECT_NE(engine.find("profile: engine"), std::string::npos);
    EXPECT_EQ(engine.find("profile: cache"), std::string::npos);
    EXPECT_EQ(engine.find("profile: wall time"), std::string::npos);

    // --profile-engine is the historical alias for --profile=engine.
    const std::string alias = runCli(withFlags({"--profile-engine"}));
    EXPECT_NE(alias.find("profile: engine"), std::string::npos);
    EXPECT_EQ(alias.find("profile: cache"), std::string::npos);

    const std::string cache =
        runCli(withFlags({"--profile=cache,wall"}));
    EXPECT_EQ(cache.find("profile: engine"), std::string::npos);
    EXPECT_NE(cache.find("profile: cache"), std::string::npos);
    EXPECT_NE(cache.find("profile: wall time"), std::string::npos);

    runCli(withFlags({"--profile=bogus"}), 2);
}

TEST(ObsCli, ProfileEngineSaysDisabledWhenSkipIsOff)
{
    // The historical bug: skip=off printed an all-zero table that read
    // like "the skipper never fired". It must say skipping was off.
    const std::string out =
        runCli(withFlags({"--set", "skip=off", "--profile=engine"}));
    EXPECT_NE(out.find("cycle skipping disabled"), std::string::npos);
    EXPECT_EQ(out.find("cycles skipped"), std::string::npos);

    const std::string on =
        runCli(withFlags({"--set", "skip=on", "--profile=engine"}));
    EXPECT_NE(on.find("cycles skipped"), std::string::npos);
}

TEST(ObsCli, ProfileReportsAttackPointEngineAndWallTime)
{
    // A recovery attack drives a memory system: the engine section
    // shows its skip counters and the wall section the run's time.
    const std::vector<std::string> dos = {
        "--set", "source=attack:recovery-dos", "--set",
        "attack_cycles=20000", "--profile=engine,wall"};
    const std::string out = runCli(dos);
    EXPECT_NE(out.find("cycles skipped"), std::string::npos);
    EXPECT_NE(out.find("wakes: command-ready"), std::string::npos);
    EXPECT_EQ(out.find("cycle skipping disabled"), std::string::npos);
    EXPECT_NE(out.find("wall ms"), std::string::npos);
    EXPECT_EQ(out.find("nothing ran"), std::string::npos);

    std::vector<std::string> dense = dos;
    dense.insert(dense.end(), {"--set", "skip=off"});
    const std::string off = runCli(dense);
    EXPECT_NE(off.find("cycle skipping disabled"), std::string::npos);
    EXPECT_NE(off.find("wall ms"), std::string::npos);

    // A family with no memory system has no skip counters, but ran.
    const std::string wave = runCli(
        {"--set", "source=attack:wave", "--profile=engine,wall"});
    EXPECT_NE(wave.find("cycle skipping disabled"), std::string::npos);
    EXPECT_NE(wave.find("wall ms"), std::string::npos);
}

TEST(ObsCli, MetricsFlagPrintsReportAndDefaultsInterval)
{
    const std::string out = runCli(withFlags({"--metrics"}));
    EXPECT_NE(out.find("--- metrics ---"), std::string::npos);
    EXPECT_NE(out.find("sampling interval: 10000 cycles"),
              std::string::npos);
    EXPECT_NE(out.find("psq_occupancy"), std::string::npos);
    EXPECT_NE(out.find("read_latency"), std::string::npos);

    // An explicit interval wins over the --metrics default.
    const std::string fine = runCli(
        withFlags({"--metrics", "--set", "metrics-interval=500"}));
    EXPECT_NE(fine.find("sampling interval: 500 cycles"),
              std::string::npos);
}

TEST(ObsCli, SweepJsonCarriesMetricsSidecar)
{
    const std::string out = runCli(withFlags(
        {"--sweep", "mitigation=qprac,moat", "--set",
         "metrics-interval=2000", "--json"}));
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(out, &doc, &err)) << err;
    const JsonValue* sweep = doc.find("sweep");
    ASSERT_NE(sweep, nullptr);
    ASSERT_EQ(sweep->items.size(), 2u);
    for (const JsonValue& point : sweep->items) {
        const JsonValue* metrics = point.find("metrics");
        ASSERT_NE(metrics, nullptr);
        EXPECT_EQ(metrics->find("trace")->text, "off");
        EXPECT_EQ(metrics->find("metrics_interval")->asU64(), 2000u);
        ASSERT_NE(metrics->find("series"), nullptr);
        // The result document itself stays observability-free.
        EXPECT_EQ(point.find("result")->find("metrics"), nullptr);
    }
}
