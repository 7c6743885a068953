/**
 * @file
 * Tests for the declarative scenario API: validated parsing, config
 * round-trips, override precedence, sweep enumeration, the scenario
 * registry (workloads + attacks behind one interface) and structured
 * JSON/CSV emission.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/json.h"
#include "common/parse.h"
#include "mitigations/factory.h"
#include "sim/scenario.h"

using namespace qprac;
using sim::ScenarioConfig;
using sim::ScenarioRegistry;
using sim::SourceKind;
using sim::SweepAxis;
using sim::SweepSpec;

namespace {

/** Scenario tests assume no QPRAC_* env overrides are in effect. */
void
clearHarnessEnv()
{
    unsetenv("QPRAC_INSTS");
    unsetenv("QPRAC_LLC_MB");
    unsetenv("QPRAC_THREADS");
    unsetenv("QPRAC_SEED");
}

ScenarioConfig
tinyScenario()
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("insts", "5000", &err)) << err;
    EXPECT_TRUE(cfg.set("cores", "1", &err)) << err;
    EXPECT_TRUE(cfg.set("threads", "2", &err)) << err;
    EXPECT_TRUE(cfg.set("llc_mb", "2", &err)) << err;
    return cfg;
}

} // namespace

// --- Validated numeric parsing (common/parse) -------------------------

TEST(ParseTest, AcceptsWellFormedIntegers)
{
    std::int64_t i = 0;
    std::uint64_t u = 0;
    EXPECT_TRUE(parseI64("42", &i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseI64("-17", &i));
    EXPECT_EQ(i, -17);
    EXPECT_TRUE(parseI64("  +8  ", &i));
    EXPECT_EQ(i, 8);
    EXPECT_TRUE(parseU64("400000", &u));
    EXPECT_EQ(u, 400000u);
    EXPECT_TRUE(parseU64("18446744073709551615", &u));
    EXPECT_EQ(u, 18446744073709551615ull);
}

TEST(ParseTest, RejectsGarbageTrailingJunkAndOverflow)
{
    std::int64_t i = 0;
    std::uint64_t u = 0;
    EXPECT_FALSE(parseI64("", &i));
    EXPECT_FALSE(parseI64("12abc", &i)); // atoi would return 12
    EXPECT_FALSE(parseI64("abc", &i));
    EXPECT_FALSE(parseI64("1 2", &i));
    EXPECT_FALSE(parseI64("0x10", &i));
    EXPECT_FALSE(parseI64("-", &i));
    EXPECT_FALSE(parseI64("99999999999999999999", &i)); // overflow
    EXPECT_FALSE(parseU64("-5", &u)); // atoll would wrap
    EXPECT_FALSE(parseU64("18446744073709551616", &u));
    EXPECT_FALSE(parseU64("4e6", &u));
}

TEST(ParseTest, RangeAndBoolHelpers)
{
    int v = 0;
    EXPECT_TRUE(parseIntInRange("5", 1, 10, &v));
    EXPECT_EQ(v, 5);
    EXPECT_FALSE(parseIntInRange("0", 1, 10, &v));
    EXPECT_FALSE(parseIntInRange("11", 1, 10, &v));
    bool b = false;
    EXPECT_TRUE(parseBool("true", &b));
    EXPECT_TRUE(b);
    EXPECT_TRUE(parseBool("Off", &b));
    EXPECT_FALSE(b);
    EXPECT_TRUE(parseBool("1", &b));
    EXPECT_TRUE(b);
    EXPECT_FALSE(parseBool("maybe", &b));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
}

// --- ScenarioConfig keys and validation -------------------------------

TEST(ScenarioConfigTest, InstsSentinelIsExplicit)
{
    ScenarioConfig cfg;
    std::string err;
    // 0 instructions cannot be requested (a degenerate run); the
    // harness-default sentinel is the explicit string "default".
    EXPECT_FALSE(cfg.set("insts", "0", &err));
    ASSERT_TRUE(cfg.set("insts", "9000", &err)) << err;
    EXPECT_EQ(cfg.get("insts"), "9000");
    ASSERT_TRUE(cfg.set("insts", "default", &err)) << err;
    EXPECT_EQ(cfg.insts, 0u);
    EXPECT_EQ(cfg.get("insts"), "default");
}

TEST(ScenarioConfigTest, SetRejectsUnknownKeysAndBadValues)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(cfg.set("no_such_key", "1", &err));
    EXPECT_NE(err.find("unknown config key"), std::string::npos);
    // Retired keys are unknown keys, not aliases.
    for (const char* key : {"subarrays", "cuq_depth", "backend"}) {
        EXPECT_FALSE(cfg.set(key, "16", &err)) << key;
        EXPECT_NE(err.find("unknown config key"), std::string::npos)
            << err;
    }
    EXPECT_FALSE(cfg.set("source", "workload:not-a-workload", &err));
    // One invalid value per key; trace-out takes any path.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"source", "attack:not-an-attack"},
        {"mitigation", "no-such-design"},
        {"psq_size", "-3"},
        {"nbo", "0"},
        {"nmit", "65"},
        {"recovery", "rank-isolated"},
        {"channels", "3"}, // not a power of two
        {"ranks", "128"},
        {"mapping", "diagonal"},
        {"insts", "12abc"},
        {"cores", "0"},
        {"seed", "-1"},
        {"llc_mb", "16385"},
        {"threads", "many"},
        {"baseline", "maybe"},
        {"r1", "0"},
        {"attack_cycles", "0"},
        {"pipeline", "sometimes"},
        {"skip", "2x"},
        {"counter-update", "coalesced"}, // a retired mode
        {"trace", "cmd+abo"}, // categories are comma-separated
        {"metrics-interval", "0"},
    };
    std::vector<std::string> covered = {"trace-out"};
    for (const auto& [key, value] : bad) {
        EXPECT_FALSE(cfg.set(key, value, &err)) << key << "=" << value;
        EXPECT_EQ(err.rfind(key + "='" + value + "': ", 0), 0u) << err;
        covered.push_back(key);
    }
    std::vector<std::string> all = ScenarioConfig::keys();
    std::sort(covered.begin(), covered.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(covered, all);
    // A retired trace category is an unknown one.
    EXPECT_FALSE(cfg.set("trace", "cmd,cuq", &err));
    EXPECT_EQ(err.rfind("trace='cmd,cuq': ", 0), 0u) << err;
    // Nothing above may have mutated the config.
    EXPECT_EQ(cfg.toIni(), ScenarioConfig().toIni());
}

TEST(ScenarioConfigTest, SetNormalizesSourcesAndMappings)
{
    ScenarioConfig cfg;
    std::string err;
    // Bare workload names (the legacy --workload form) normalize.
    ASSERT_TRUE(cfg.set("source", "429.mcf", &err)) << err;
    EXPECT_EQ(cfg.source, "workload:429.mcf");
    EXPECT_EQ(cfg.sourceKind(), SourceKind::Workload);
    EXPECT_EQ(cfg.sourceName(), "429.mcf");
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    EXPECT_EQ(cfg.sourceKind(), SourceKind::Attack);
    ASSERT_TRUE(cfg.set("source", "trace:/tmp/x.trace", &err)) << err;
    EXPECT_EQ(cfg.sourceKind(), SourceKind::TraceFile);
    EXPECT_EQ(cfg.sourceName(), "/tmp/x.trace");
    // Mapping aliases normalize to the canonical scheme name.
    ASSERT_TRUE(cfg.set("mapping", "rorabgbacoch", &err)) << err;
    EXPECT_EQ(cfg.mapping, "channel-striped");
}

TEST(ScenarioConfigTest, RoundTripIsIdentity)
{
    // Every key, each set away from its default.
    const std::vector<std::pair<std::string, std::string>> sets = {
        {"source", "attack:perf"},
        {"mitigation", "qprac-ideal"},
        {"psq_size", "7"},
        {"nbo", "64"},
        {"nmit", "2"},
        {"recovery", "bank-isolated"},
        {"channels", "2"},
        {"ranks", "4"},
        {"mapping", "channel-striped"},
        {"insts", "123456"},
        {"cores", "8"},
        {"seed", "999"},
        {"llc_mb", "8"},
        {"threads", "3"},
        {"baseline", "yes"},
        {"r1", "1234"},
        {"attack_cycles", "5000"},
        {"pipeline", "off"},
        {"skip", "on"},
        {"counter-update", "queued"},
        {"trace", "abo,cmd"},
        {"trace-out", "out.csv"},
        {"metrics-interval", "500"},
    };
    ScenarioConfig cfg;
    std::string err;
    std::vector<std::string> covered;
    for (const auto& [key, value] : sets) {
        ASSERT_TRUE(cfg.set(key, value, &err)) << err;
        EXPECT_NE(cfg.get(key), ScenarioConfig().get(key)) << key;
        covered.push_back(key);
    }
    EXPECT_EQ(covered, ScenarioConfig::keys());

    std::string ini = cfg.toIni();
    ScenarioConfig reparsed;
    ASSERT_TRUE(ScenarioConfig::fromIniText(ini, &reparsed, &err)) << err;
    for (const auto& key : ScenarioConfig::keys())
        EXPECT_EQ(reparsed.get(key), cfg.get(key)) << key;
    // Serialize -> parse -> serialize is a fixed point.
    EXPECT_EQ(reparsed.toIni(), ini);
}

TEST(ScenarioConfigTest, IniParsingToleratesCommentsAndSections)
{
    const char* text =
        "# comment\n"
        "; another comment\n"
        "[design]\n"
        "  mitigation = moat  \n"
        "\n"
        "nbo=64\n";
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(ScenarioConfig::fromIniText(text, &cfg, &err)) << err;
    EXPECT_EQ(cfg.mitigation, "moat");
    EXPECT_EQ(cfg.nbo, 64);
}

TEST(ScenarioConfigTest, IniParsingReportsLineNumbers)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(
        ScenarioConfig::fromIniText("nbo = 32\nwat\n", &cfg, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_FALSE(
        ScenarioConfig::fromIniText("\n\nnbo = banana\n", &cfg, &err));
    EXPECT_NE(err.find("line 3"), std::string::npos);
    // Errors leave *out untouched.
    EXPECT_EQ(cfg.toIni(), ScenarioConfig().toIni());
}

TEST(ScenarioConfigTest, OverridePrecedenceIsLastWins)
{
    // File first, then --set style overrides in order.
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(ScenarioConfig::fromIniText("psq_size = 3\nnbo = 64\n",
                                            &cfg, &err))
        << err;
    EXPECT_EQ(cfg.psq_size, 3);
    ASSERT_TRUE(cfg.set("psq_size", "7", &err)) << err;
    ASSERT_TRUE(cfg.set("psq_size", "9", &err)) << err;
    EXPECT_EQ(cfg.psq_size, 9); // later set wins
    EXPECT_EQ(cfg.nbo, 64);     // untouched keys survive
    // A file applied on top of an existing config overrides sparsely.
    ASSERT_TRUE(
        ScenarioConfig::fromIniText("nbo = 128\n", &cfg, &err))
        << err;
    EXPECT_EQ(cfg.nbo, 128);
    EXPECT_EQ(cfg.psq_size, 9);
}

TEST(ScenarioConfigTest, ExperimentResolvesDefaults)
{
    clearHarnessEnv();
    ScenarioConfig cfg;
    sim::ExperimentConfig e = cfg.experiment();
    // Field defaults of 0 resolve to the harness defaults, so the
    // bench suite keeps its historical behaviour.
    EXPECT_EQ(e.insts_per_core,
              sim::ExperimentConfig::defaultInstsPerCore());
    EXPECT_EQ(e.llc_mb, sim::ExperimentConfig::defaultLlcMb());
    EXPECT_EQ(e.seed, 0u);
    EXPECT_EQ(e.num_cores, 4);
    std::string err;
    ASSERT_TRUE(cfg.set("insts", "777", &err)) << err;
    ASSERT_TRUE(cfg.set("seed", "5", &err)) << err;
    ASSERT_TRUE(cfg.set("channels", "2", &err)) << err;
    e = cfg.experiment();
    EXPECT_EQ(e.insts_per_core, 777u);
    EXPECT_EQ(e.seed, 5u);
    EXPECT_EQ(e.channels, 2);
}

TEST(ScenarioConfigTest, DesignMirrorsLegacyWiring)
{
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("mitigation", "qprac", &err)) << err;
    ASSERT_TRUE(cfg.set("nmit", "2", &err)) << err;
    sim::DesignSpec d = cfg.design();
    EXPECT_TRUE(d.abo.enabled);
    EXPECT_EQ(d.abo.nmit, 2);
    ASSERT_TRUE(d.factory);
    dram::PracCounters ctrs(1, 64);
    EXPECT_NE(d.factory(&ctrs), nullptr);

    ASSERT_TRUE(cfg.set("mitigation", "pride", &err)) << err;
    d = cfg.design();
    EXPECT_FALSE(d.abo.enabled);
    EXPECT_EQ(d.baseline_key, "noprac");
    EXPECT_GT(d.rfm_policy.acts_per_rfm, 0);

    ASSERT_TRUE(cfg.set("mitigation", "none", &err)) << err;
    d = cfg.design();
    EXPECT_FALSE(d.abo.enabled);
}

// --- ScenarioRegistry -------------------------------------------------

TEST(ScenarioRegistryTest, ExposesWorkloadsAndAttacks)
{
    auto& reg = ScenarioRegistry::instance();
    EXPECT_TRUE(reg.has("workload:429.mcf"));
    EXPECT_TRUE(reg.has("429.mcf"));
    EXPECT_TRUE(reg.has("attack:wave"));
    EXPECT_TRUE(reg.has("attack:perf"));
    EXPECT_TRUE(reg.has("attack:toggle-forget"));
    EXPECT_TRUE(reg.has("attack:fill-escape"));
    EXPECT_TRUE(reg.has("attack:blocking-tbit"));
    EXPECT_TRUE(reg.has("attack:rfm-probe"));
    EXPECT_TRUE(reg.has("attack:recovery-dos"));
    EXPECT_FALSE(reg.has("attack:nope"));
    EXPECT_FALSE(reg.has("no.such.workload"));

    // Only the recovery attacks model multiple channels.
    EXPECT_TRUE(reg.attackSupportsChannels("rfm-probe"));
    EXPECT_TRUE(reg.attackSupportsChannels("recovery-dos"));
    EXPECT_FALSE(reg.attackSupportsChannels("wave"));
    EXPECT_FALSE(reg.attackSupportsChannels("nope"));

    int workloads = 0;
    int attacks = 0;
    for (const auto& s : reg.sources()) {
        if (s.kind == SourceKind::Workload)
            ++workloads;
        if (s.kind == SourceKind::Attack) {
            ++attacks;
            EXPECT_FALSE(s.description.empty());
            EXPECT_FALSE(s.keys.empty()) << s.name;
        }
    }
    EXPECT_EQ(workloads, 57);
    EXPECT_EQ(attacks, 7);

    // The recovery families drive a memory system, so they honour the
    // engine and observability keys too, and list them.
    for (const auto& s : reg.sources()) {
        if (s.name != "attack:rfm-probe" && s.name != "attack:recovery-dos")
            continue;
        for (const char* key :
             {"skip", "trace", "trace-out", "metrics-interval"})
            EXPECT_NE(std::find(s.keys.begin(), s.keys.end(), key),
                      s.keys.end())
                << s.name << " does not list " << key;
    }
}

TEST(ScenarioRegistryTest, RunsSystemScenario)
{
    clearHarnessEnv();
    ScenarioConfig cfg = tinyScenario();
    sim::ScenarioResult res = sim::runScenario(cfg);
    EXPECT_FALSE(res.is_attack);
    EXPECT_GT(res.sim.cycles, 0u);
    EXPECT_GT(res.sim.ipc_sum, 0.0);
    EXPECT_TRUE(res.stats.has("dram.acts"));
}

TEST(ScenarioRegistryTest, RunsAttackScenarioThroughSameSurface)
{
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    ASSERT_TRUE(cfg.set("nbo", "32", &err)) << err;
    sim::ScenarioResult res = sim::runScenario(cfg);
    EXPECT_TRUE(res.is_attack);
    EXPECT_GT(res.stats.get("attack.max_count"), 0.0);
    EXPECT_GT(res.stats.get("attack.total_acts"), 0.0);

    ASSERT_TRUE(cfg.set("source", "attack:toggle-forget", &err)) << err;
    res = sim::runScenario(cfg);
    // The paper's point: FIFO t-bit PRAC never mitigates the target.
    EXPECT_EQ(res.stats.get("attack.target_mitigated"), 0.0);
    EXPECT_GT(res.stats.get("attack.target_unmitigated_acts"), 0.0);
}

TEST(ScenarioRegistryTest, WaveAttackRejectsDesignsItDoesNotModel)
{
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    for (const char* design :
         {"qprac", "qprac-noop", "qprac+proactive", "qprac+proactive-ea",
          "qprac-ideal"}) {
        ASSERT_TRUE(cfg.set("mitigation", design, &err)) << err;
        EXPECT_TRUE(cfg.validate(&err)) << design << ": " << err;
    }
    // The Wave harness drives one QPRAC engine: any other design would
    // run as QPRAC under its own name, and it has no unmitigated mode.
    for (const char* design : {"moat", "panopticon", "none"}) {
        ASSERT_TRUE(cfg.set("mitigation", design, &err)) << err;
        EXPECT_FALSE(cfg.validate(&err)) << design;
        EXPECT_NE(err.find("models QPRAC designs only"), std::string::npos)
            << err;
    }
    // The perf driver builds whatever design the scenario names.
    ASSERT_TRUE(cfg.set("source", "attack:perf", &err)) << err;
    for (const std::string& design :
         mitigations::MitigationRegistry::instance().names()) {
        ASSERT_TRUE(cfg.set("mitigation", design, &err)) << err;
        EXPECT_TRUE(cfg.validate(&err)) << design << ": " << err;
    }
    // Workloads take every design.
    ASSERT_TRUE(cfg.set("source", "workload:429.mcf", &err)) << err;
    EXPECT_TRUE(cfg.validate(&err)) << err;
}

TEST(ScenarioRegistryTest, SeedReproducesAndPerturbsRuns)
{
    clearHarnessEnv();
    ScenarioConfig cfg = tinyScenario();
    std::string err;
    ASSERT_TRUE(cfg.set("seed", "11", &err)) << err;
    sim::ScenarioResult a = sim::runScenario(cfg);
    sim::ScenarioResult b = sim::runScenario(cfg);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_DOUBLE_EQ(a.sim.ipc_sum, b.sim.ipc_sum);
    ASSERT_TRUE(cfg.set("seed", "12", &err)) << err;
    sim::ScenarioResult c = sim::runScenario(cfg);
    // A different seed must change the synthetic stream (and with it
    // the cycle count of a memory-bound run).
    EXPECT_NE(a.sim.cycles, c.sim.cycles);
}

// --- Structured emission ----------------------------------------------

TEST(ScenarioEmissionTest, JsonIsValidAndCarriesAggregates)
{
    clearHarnessEnv();
    ScenarioConfig cfg = tinyScenario();
    std::string err;
    ASSERT_TRUE(cfg.set("baseline", "true", &err)) << err;
    sim::ScenarioResult res = sim::runScenario(cfg);
    std::string json = res.toJson();
    EXPECT_TRUE(jsonValid(json)) << json;
    for (const char* key :
         {"\"scenario\"", "\"result\"", "\"cycles\"", "\"ipc_sum\"",
          "\"rbmpki\"", "\"alerts_per_trefi\"", "\"norm_perf\"",
          "\"stats\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_TRUE(jsonValid(res.sim.toJson()));

    auto header = sim::ScenarioResult::csvHeader();
    auto row = res.csvRow();
    EXPECT_EQ(header.size(), row.size());
}

TEST(ScenarioEmissionTest, CsvRowCarriesAttackStats)
{
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    sim::ScenarioResult res = sim::runScenario(cfg);
    auto header = sim::ScenarioResult::csvHeader();
    auto row = res.csvRow();
    ASSERT_EQ(header.size(), row.size());
    ASSERT_EQ(header.back(), "attack_stats");
    // The attack counters must survive into the CSV (the aggregate
    // metric columns are all zero for event-level attacks).
    EXPECT_NE(row.back().find("attack.max_count="), std::string::npos);
    EXPECT_NE(row.back().find("attack.total_acts="), std::string::npos);
}

TEST(ScenarioEmissionTest, JsonWriterEscapesAndValidates)
{
    JsonWriter w;
    w.beginObject();
    w.key("weird \"key\"\n").value(std::string("tab\there"));
    w.key("n").value(-3);
    w.key("x").value(0.5);
    w.endObject();
    EXPECT_TRUE(jsonValid(w.str()));
    EXPECT_FALSE(jsonValid("{\"a\":}"));
    EXPECT_FALSE(jsonValid("[1,2"));
    EXPECT_FALSE(jsonValid("{} trailing"));
    EXPECT_TRUE(jsonValid(" [1, 2.5e3, \"s\", null, true] "));
}

// --- Sweeps -----------------------------------------------------------

TEST(SweepTest, ParsesListsAndRanges)
{
    SweepAxis axis;
    std::string err;
    ASSERT_TRUE(SweepAxis::parse(
        "mapping=row-major,bank-striped,channel-striped", &axis, &err))
        << err;
    EXPECT_EQ(axis.key, "mapping");
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"row-major", "bank-striped",
                                        "channel-striped"}));
    ASSERT_TRUE(SweepAxis::parse("psq_size=1:5", &axis, &err)) << err;
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"1", "2", "3", "4", "5"}));
    ASSERT_TRUE(SweepAxis::parse("nbo=8:32:8", &axis, &err)) << err;
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"8", "16", "24", "32"}));
    ASSERT_TRUE(SweepAxis::parse("cores = 2 , 4", &axis, &err)) << err;
    EXPECT_EQ(axis.values, (std::vector<std::string>{"2", "4"}));
}

TEST(SweepTest, RejectsMalformedAxes)
{
    SweepAxis axis;
    std::string err;
    EXPECT_FALSE(SweepAxis::parse("psq_size", &axis, &err));
    EXPECT_FALSE(SweepAxis::parse("unknown_key=1,2", &axis, &err));
    EXPECT_FALSE(SweepAxis::parse("psq_size=", &axis, &err));
    EXPECT_FALSE(SweepAxis::parse("psq_size=5:1", &axis, &err));
    EXPECT_FALSE(SweepAxis::parse("psq_size=1:9:0", &axis, &err));
    EXPECT_FALSE(SweepAxis::parse("mapping=row-major,,bank-striped", &axis,
                                  &err));
    // A retired key is an unknown axis.
    EXPECT_FALSE(SweepAxis::parse("backend=linear,heap", &axis, &err));

    // A duplicate axis key would silently mislabel the grid.
    SweepSpec spec;
    ASSERT_TRUE(spec.add("psq_size=1:2", &err)) << err;
    EXPECT_FALSE(spec.add("psq_size=3,4", &err));
    EXPECT_NE(err.find("duplicate axis"), std::string::npos);
}

TEST(SweepTest, RangesAreBoundedAndOverflowSafe)
{
    SweepAxis axis;
    std::string err;
    // A typo'd huge range must fail at parse time, before any value
    // is materialized — including the full-int64 span whose point
    // count would wrap a u64.
    EXPECT_FALSE(
        SweepAxis::parse("nbo=1:9223372036854775807", &axis, &err));
    EXPECT_NE(err.find("more than"), std::string::npos);
    EXPECT_FALSE(SweepAxis::parse(
        "nbo=-9223372036854775808:9223372036854775807", &axis, &err));
    EXPECT_NE(err.find("more than"), std::string::npos);
    // Extreme-but-small ranges near the int64 edges must enumerate
    // without signed overflow (UBSan guards this in CI).
    ASSERT_TRUE(SweepAxis::parse(
        "seed=9223372036854775806:9223372036854775807", &axis, &err))
        << err;
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"9223372036854775806",
                                        "9223372036854775807"}));
    ASSERT_TRUE(
        SweepAxis::parse("nbo=1:9223372036854775807:9223372036854775806",
                         &axis, &err))
        << err;
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"1", "9223372036854775807"}));
}

TEST(SweepTest, EnumeratesCrossProductDeterministically)
{
    SweepSpec spec;
    std::string err;

    // Empty spec: one point, no overrides (the base scenario).
    auto points = spec.enumerate();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].empty());
    EXPECT_EQ(spec.points(), 1u);

    // Single axis: one point per value, in order.
    ASSERT_TRUE(spec.add("psq_size=1:3", &err)) << err;
    points = spec.enumerate();
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[1][0].second, "2");

    // Two axes: first axis varies slowest.
    ASSERT_TRUE(spec.add("nbo=16,32", &err)) << err;
    EXPECT_EQ(spec.points(), 6u);
    points = spec.enumerate();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0][0].second, "1");
    EXPECT_EQ(points[0][1].second, "16");
    EXPECT_EQ(points[1][0].second, "1");
    EXPECT_EQ(points[1][1].second, "32");
    EXPECT_EQ(points[5][0].second, "3");
    EXPECT_EQ(points[5][1].second, "32");
}

TEST(SweepTest, RunSweepKeepsEnumerationOrderAndValidates)
{
    clearHarnessEnv();
    ScenarioConfig base = tinyScenario();
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(spec.add("psq_size=1:2", &err)) << err;
    ASSERT_TRUE(spec.add("nmit=1,2", &err)) << err;
    auto results = sim::runSweep(base, spec, &err);
    ASSERT_EQ(results.size(), 4u) << err;
    // Results arrive in enumerate() order even though execution is
    // parallel, and each point's config reflects its overrides.
    EXPECT_EQ(results[0].result.config.psq_size, 1);
    EXPECT_EQ(results[0].result.config.nmit, 1);
    EXPECT_EQ(results[1].result.config.nmit, 2);
    EXPECT_EQ(results[3].result.config.psq_size, 2);
    EXPECT_EQ(results[3].result.config.nmit, 2);
    for (const auto& point : results)
        EXPECT_GT(point.result.sim.cycles, 0u);

    // An invalid override value fails the whole sweep up front.
    SweepSpec bad;
    ASSERT_TRUE(bad.add("channels=2:3", &err)) << err;
    err.clear();
    auto none = sim::runSweep(base, bad, &err);
    EXPECT_TRUE(none.empty());
    EXPECT_FALSE(err.empty());
}
