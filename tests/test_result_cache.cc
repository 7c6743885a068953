/**
 * @file
 * The content-addressed result cache (sim/result_cache.h) and the
 * sweep-level experiment service built on it: hits must be
 * byte-identical to fresh runs, damaged sidecars must be recomputed
 * (never trusted), concurrent stores must stay atomic, interrupted
 * grids must resume, and an isolated sweep must survive a point that
 * would fatal() the process.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "sim/result_cache.h"
#include "sim/scenario.h"
#include "sim/scenario_hash.h"

using qprac::sim::ResultCache;
using qprac::sim::runScenario;
using qprac::sim::runSweep;
using qprac::sim::ScenarioConfig;
using qprac::sim::ScenarioResult;
using qprac::sim::SweepCounters;
using qprac::sim::SweepOptions;
using qprac::sim::SweepPointResult;
using qprac::sim::SweepSpec;

namespace {

/** Fresh (empty) per-test cache directory under the gtest temp root. */
std::string
freshDir(const std::string& name)
{
    std::string dir = testing::TempDir() + "result_cache_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

ScenarioConfig
smallConfig()
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", "workload:429.mcf", &err)) << err;
    EXPECT_TRUE(cfg.set("insts", "2000", &err)) << err;
    EXPECT_TRUE(cfg.set("cores", "1", &err)) << err;
    EXPECT_TRUE(cfg.validate(&err)) << err;
    return cfg;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

TEST(ResultCache, DisabledCacheAlwaysMisses)
{
    ResultCache cache("");
    EXPECT_FALSE(cache.enabled());
    ScenarioConfig cfg = smallConfig();
    ScenarioResult res;
    EXPECT_FALSE(cache.lookup(cfg, &res));
    EXPECT_FALSE(cache.store(cfg, runScenario(cfg)));
    EXPECT_EQ(cache.counters().stored, 0u);
}

TEST(ResultCache, StoreThenLookupIsByteIdentical)
{
    ResultCache cache(freshDir("roundtrip"));
    ASSERT_TRUE(cache.enabled());
    ScenarioConfig cfg = smallConfig();

    ScenarioResult fresh = runScenario(cfg);
    ScenarioResult loaded;
    EXPECT_FALSE(cache.lookup(cfg, &loaded)); // cold
    ASSERT_TRUE(cache.store(cfg, fresh));
    ASSERT_TRUE(cache.lookup(cfg, &loaded));

    // The whole contract: a hit reproduces the fresh run's result
    // document byte for byte (doubles round-trip through %.17g).
    EXPECT_EQ(loaded.resultJson(), fresh.resultJson());
    EXPECT_EQ(loaded.csvRow(), fresh.csvRow());
    EXPECT_EQ(loaded.is_attack, fresh.is_attack);
    EXPECT_EQ(loaded.sim.cycles, fresh.sim.cycles);

    const auto c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.rejected, 0u);
    EXPECT_EQ(c.stored, 1u);
}

TEST(ResultCache, EnvironmentResolvedDefaultsNeverAlias)
{
    // insts=default, llc_mb=0 and seed=0 resolve through QPRAC_INSTS,
    // QPRAC_LLC_MB and QPRAC_SEED when the run starts, so a result
    // computed under one environment must not serve a run under
    // another.
    for (const char* var : {"QPRAC_INSTS", "QPRAC_LLC_MB", "QPRAC_SEED"})
        unsetenv(var);
    ScenarioConfig cfg = smallConfig();
    std::string err;
    ASSERT_TRUE(cfg.set("insts", "default", &err)) << err;
    const std::string plain = qprac::sim::scenarioCanonicalKey(cfg);
    ResultCache cache(freshDir("environment"));

    setenv("QPRAC_INSTS", "2000", 1);
    const ScenarioResult fresh = runScenario(cfg);
    cache.store(cfg, fresh);
    ScenarioResult hit;
    setenv("QPRAC_INSTS", "3000", 1);
    EXPECT_FALSE(cache.lookup(cfg, &hit));
    setenv("QPRAC_INSTS", "2000", 1);
    ASSERT_TRUE(cache.lookup(cfg, &hit));
    EXPECT_EQ(hit.resultJson(), fresh.resultJson());
    // The resolved run is the explicit one, so they share the entry.
    EXPECT_TRUE(cache.lookup(smallConfig(), &hit));

    // Each variable moves the key only off its built-in default.
    setenv("QPRAC_INSTS", "300000", 1);
    EXPECT_EQ(qprac::sim::scenarioCanonicalKey(cfg), plain);
    unsetenv("QPRAC_INSTS");
    for (const char* var : {"QPRAC_LLC_MB", "QPRAC_SEED"}) {
        setenv(var, "4", 1);
        EXPECT_NE(qprac::sim::scenarioCanonicalKey(cfg), plain) << var;
        unsetenv(var);
    }
    EXPECT_EQ(qprac::sim::scenarioCanonicalKey(cfg), plain);
}

TEST(ResultCache, AttackResultRoundTrips)
{
    ResultCache cache(freshDir("attack"));
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("source", "attack:rfm-probe", &err)) << err;
    ASSERT_TRUE(cfg.set("channels", "2", &err)) << err;
    ASSERT_TRUE(cfg.set("attack_cycles", "20000", &err)) << err;
    ASSERT_TRUE(cfg.validate(&err)) << err;

    ScenarioResult fresh = runScenario(cfg);
    ASSERT_TRUE(fresh.is_attack);
    ASSERT_TRUE(cache.store(cfg, fresh));
    ScenarioResult loaded;
    ASSERT_TRUE(cache.lookup(cfg, &loaded));
    EXPECT_TRUE(loaded.is_attack);
    EXPECT_EQ(loaded.resultJson(), fresh.resultJson());
}

TEST(ResultCache, DamagedSidecarsAreRejectedNotTrusted)
{
    ResultCache cache(freshDir("damaged"));
    ScenarioConfig cfg = smallConfig();
    ScenarioResult fresh = runScenario(cfg);
    ASSERT_TRUE(cache.store(cfg, fresh));
    const std::string path = cache.sidecarPath(cfg);
    const std::string good = readFile(path);
    ASSERT_FALSE(good.empty());
    ScenarioResult loaded;

    // Truncated mid-document.
    writeFile(path, good.substr(0, good.size() / 2));
    EXPECT_FALSE(cache.lookup(cfg, &loaded));

    // Outright garbage.
    writeFile(path, "not json at all {{{");
    EXPECT_FALSE(cache.lookup(cfg, &loaded));

    // Valid JSON, wrong format version.
    std::string bumped = good;
    const std::string tag = "\"cache_format\":" +
                            std::to_string(ResultCache::kFormatVersion);
    auto at = bumped.find(tag);
    ASSERT_NE(at, std::string::npos);
    bumped.replace(at, tag.size(), "\"cache_format\":999");
    writeFile(path, bumped);
    EXPECT_FALSE(cache.lookup(cfg, &loaded));

    // Valid sidecar for a *different* scenario parked at this path
    // (simulates a hash collision / a renamed file): the canonical-key
    // check refuses it.
    ScenarioConfig other = cfg;
    std::string err;
    ASSERT_TRUE(other.set("nbo", "16", &err)) << err;
    ASSERT_TRUE(cache.store(other, runScenario(other)));
    writeFile(path, readFile(cache.sidecarPath(other)));
    EXPECT_FALSE(cache.lookup(cfg, &loaded));

    EXPECT_EQ(cache.counters().rejected, 4u);

    // Every rejection is recoverable: recompute, overwrite, hit.
    ASSERT_TRUE(cache.store(cfg, fresh));
    ASSERT_TRUE(cache.lookup(cfg, &loaded));
    EXPECT_EQ(loaded.resultJson(), fresh.resultJson());
}

TEST(ResultCache, ConcurrentStoresStayAtomic)
{
    const std::string dir = freshDir("concurrent");
    ResultCache cache(dir);
    ScenarioConfig cfg = smallConfig();
    ScenarioResult fresh = runScenario(cfg);

    // Many threads racing to store the same point: rename is atomic
    // and every payload is identical, so the final file must be one
    // valid sidecar with no tmp debris, whoever won.
    std::vector<std::thread> writers;
    for (int i = 0; i < 8; ++i)
        writers.emplace_back([&] {
            for (int k = 0; k < 5; ++k)
                cache.store(cfg, fresh);
        });
    for (auto& t : writers)
        t.join();

    std::size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        ++files;
        EXPECT_EQ(entry.path().extension(), ".json")
            << "tmp debris: " << entry.path();
    }
    EXPECT_EQ(files, 1u);
    ScenarioResult loaded;
    ASSERT_TRUE(cache.lookup(cfg, &loaded));
    EXPECT_EQ(loaded.resultJson(), fresh.resultJson());
}

TEST(ResultCache, SweepResumesFromSurvivingSidecars)
{
    const std::string dir = freshDir("resume");
    ScenarioConfig base = smallConfig();
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(spec.add("nbo=16,32", &err)) << err;
    ASSERT_TRUE(spec.add("nmit=1,2", &err)) << err;

    // Reference: the plain, uncached sweep.
    auto reference = runSweep(base, spec, &err);
    ASSERT_EQ(reference.size(), 4u) << err;

    // Cold cached run computes everything.
    ResultCache cold_cache(dir);
    SweepOptions options;
    options.cache = &cold_cache;
    SweepCounters counters;
    auto cold = runSweep(base, spec, options, &err, &counters);
    ASSERT_EQ(cold.size(), 4u) << err;
    EXPECT_EQ(counters.points, 4u);
    EXPECT_EQ(counters.hits, 0u);
    EXPECT_EQ(counters.computed, 4u);
    EXPECT_EQ(counters.stored, 4u);
    for (std::size_t i = 0; i < cold.size(); ++i) {
        EXPECT_FALSE(cold[i].cached);
        EXPECT_EQ(cold[i].hash,
                  qprac::sim::scenarioHashHex(
                      [&] {
                          ScenarioConfig pc = base;
                          std::string e;
                          for (const auto& [k, v] : cold[i].overrides)
                              EXPECT_TRUE(pc.set(k, v, &e)) << e;
                          return pc;
                      }()));
        EXPECT_EQ(cold[i].result.resultJson(),
                  reference[i].result.resultJson());
    }

    // Simulate an interrupted grid: half the sidecars vanish.
    std::filesystem::remove(dir + "/" + cold[1].hash + ".json");
    std::filesystem::remove(dir + "/" + cold[3].hash + ".json");

    ResultCache warm_cache(dir);
    options.cache = &warm_cache;
    auto resumed = runSweep(base, spec, options, &err, &counters);
    ASSERT_EQ(resumed.size(), 4u) << err;
    EXPECT_EQ(counters.hits, 2u);
    EXPECT_EQ(counters.computed, 2u);
    EXPECT_EQ(counters.stored, 2u);
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        // Survivors are hits, casualties recomputed — and every result
        // is byte-identical to the uncached reference either way.
        EXPECT_EQ(resumed[i].cached, i == 0 || i == 2);
        EXPECT_EQ(resumed[i].result.resultJson(),
                  reference[i].result.resultJson());
        if (resumed[i].cached) {
            // A hit reports lookup time and no engine throughput.
            EXPECT_EQ(resumed[i].sim_cycles_per_sec, 0.0);
            EXPECT_FALSE(resumed[i].failed);
        }
    }
}

TEST(ResultCache, IsolatedSweepRecordsFailedPointAndCompletes)
{
    // The isolated runner re-execs the CLI binary; ctest runs with the
    // build directory as cwd, where it lives. Elsewhere, skip.
    if (!std::filesystem::exists("./qprac_sim"))
        GTEST_SKIP() << "qprac_sim binary not beside the test runner";

    ScenarioConfig base = smallConfig();
    SweepSpec spec;
    std::string err;
    // trace:/nonexistent validates (any non-empty trace path is legal
    // config) but fatal()s at run time — in-process it would kill the
    // whole grid.
    ASSERT_TRUE(
        spec.add("source=workload:429.mcf,trace:/nonexistent", &err))
        << err;

    SweepOptions options;
    options.isolate = true;
    options.isolate_exe = "./qprac_sim";
    SweepCounters counters;
    auto results = runSweep(base, spec, options, &err, &counters);
    ASSERT_EQ(results.size(), 2u) << err;
    EXPECT_EQ(counters.failed, 1u);
    EXPECT_EQ(counters.computed, 1u);

    // The good point's isolated result matches the in-process run
    // byte for byte (the child serialized, we reconstructed).
    EXPECT_FALSE(results[0].failed);
    ScenarioConfig good = base;
    ASSERT_TRUE(good.set("source", "workload:429.mcf", &err)) << err;
    ASSERT_TRUE(good.validate(&err)) << err;
    EXPECT_EQ(results[0].result.resultJson(),
              runScenario(good).resultJson());

    EXPECT_TRUE(results[1].failed);
    EXPECT_NE(results[1].error.find("point failed"), std::string::npos)
        << results[1].error;
    EXPECT_NE(results[1].error.find("trace"), std::string::npos)
        << results[1].error;
}

} // namespace
