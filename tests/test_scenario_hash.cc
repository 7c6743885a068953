/**
 * @file
 * The scenario content hash (sim/scenario_hash.h) is an on-disk
 * contract: sidecar files in every user's --cache-dir are named by it.
 * These tests pin the exclusion semantics (result-neutral engine keys
 * never move the hash, result-bearing keys always do) and the exact
 * golden values, so an accidental change to the canonical form shows
 * up here instead of as silently orphaned caches.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario_hash.h"

using qprac::sim::ScenarioConfig;
using qprac::sim::scenarioCanonicalKey;
using qprac::sim::scenarioHash;
using qprac::sim::scenarioHashedKeys;
using qprac::sim::scenarioHashExcludedKeys;
using qprac::sim::scenarioHashHex;

namespace {

ScenarioConfig
withSets(const std::vector<std::pair<std::string, std::string>>& sets)
{
    ScenarioConfig cfg;
    std::string err;
    for (const auto& [key, value] : sets)
        EXPECT_TRUE(cfg.set(key, value, &err)) << key << ": " << err;
    return cfg;
}

TEST(ScenarioHash, HexFormat)
{
    const std::string hex = scenarioHashHex(ScenarioConfig{});
    ASSERT_EQ(hex.size(), 16u);
    for (char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hex;
}

TEST(ScenarioHash, Fnv1a64KnownVectors)
{
    // Published FNV-1a 64 test vectors.
    EXPECT_EQ(qprac::sim::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(qprac::sim::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(qprac::sim::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(ScenarioHash, HashedPlusExcludedCoversEveryKey)
{
    std::vector<std::string> all = scenarioHashedKeys();
    for (const auto& key : scenarioHashExcludedKeys())
        all.push_back(key);
    std::vector<std::string> expected = ScenarioConfig::keys();
    std::sort(all.begin(), all.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(all, expected);
}

TEST(ScenarioHash, ResultNeutralKeysNeverMoveTheHash)
{
    const ScenarioConfig base;
    const std::uint64_t h = scenarioHash(base);
    // threads / pipeline / skip are bit-identity-guaranteed by the
    // determinism suite, so every combination shares one cache entry.
    EXPECT_EQ(scenarioHash(withSets({{"threads", "4"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"threads", "1"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"pipeline", "on"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"skip", "on"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"skip", "off"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"threads", "8"},
                                     {"pipeline", "off"},
                                     {"skip", "off"}})),
              h);
    // ...and the canonical key never even mentions them.
    const std::string key = scenarioCanonicalKey(base);
    EXPECT_EQ(key.find("threads="), std::string::npos) << key;
    EXPECT_EQ(key.find("pipeline="), std::string::npos) << key;
    EXPECT_EQ(key.find("skip="), std::string::npos) << key;
}

TEST(ScenarioHash, ResultBearingKeysEachMoveTheHash)
{
    const std::uint64_t base = scenarioHash(ScenarioConfig{});
    const std::vector<std::pair<std::string, std::string>> changes = {
        {"source", "workload:470.lbm"},
        {"mitigation", "moat"},
        {"backend", "heap"},
        {"psq_size", "9"},
        {"nbo", "16"},
        {"nmit", "2"},
        {"recovery", "bank-isolated"},
        {"channels", "2"},
        {"ranks", "1"},
        {"mapping", "channel-striped"},
        {"insts", "12345"},
        {"cores", "3"},
        {"seed", "7"},
        {"llc_mb", "2"},
        {"baseline", "true"},
        {"r1", "1234"},
        {"attack_cycles", "5000"},
    };
    for (const auto& change : changes)
        EXPECT_NE(scenarioHash(withSets({change})), base)
            << change.first << " did not move the hash";
}

TEST(ScenarioHash, CanonicalKeyShape)
{
    // counter-update serializes only when it leaves the inline
    // default; every other hashed key always appears.
    std::vector<std::string> unless_inline;
    for (const auto& row : qprac::sim::scenarioKeyTable())
        if (row.hash == qprac::sim::KeyHashClass::UnlessInline)
            unless_inline.push_back(row.name);
    EXPECT_EQ(unless_inline, (std::vector<std::string>{"counter-update"}));
    auto unlessInline = [&](const std::string& name) {
        return std::find(unless_inline.begin(), unless_inline.end(),
                         name) != unless_inline.end();
    };
    const std::string key = scenarioCanonicalKey(ScenarioConfig{});
    EXPECT_EQ(key.rfind("qprac-scenario-v1\n", 0), 0u) << key;
    // The retired corepar key keeps its fixed line, so existing hashes
    // and cache sidecars stay valid.
    EXPECT_NE(key.find("\nattack_cycles=default\ncorepar=off\n"),
              std::string::npos)
        << key;
    for (const auto& hashed : scenarioHashedKeys()) {
        if (unlessInline(hashed)) {
            EXPECT_EQ(key.find("\n" + hashed + "="), std::string::npos)
                << hashed << " leaked into an inline config:\n" << key;
            continue;
        }
        EXPECT_NE(key.find("\n" + hashed + "="), std::string::npos)
            << hashed << " missing from:\n" << key;
    }
    const std::string queued =
        scenarioCanonicalKey(withSets({{"counter-update", "queued"}}));
    for (const auto& hashed : scenarioHashedKeys())
        EXPECT_NE(queued.find("\n" + hashed + "="), std::string::npos)
            << hashed << " missing from:\n" << queued;
    const std::string tail = "\ncorepar=off\ncounter-update=queued\n";
    ASSERT_GE(queued.size(), tail.size());
    EXPECT_EQ(queued.substr(queued.size() - tail.size()), tail) << queued;
}

TEST(ScenarioHash, CounterUpdateKeysMoveTheHashOnlyWhenQueued)
{
    const std::uint64_t base = scenarioHash(ScenarioConfig{});
    // Leaving the inline default moves the hash...
    const std::uint64_t queued =
        scenarioHash(withSets({{"counter-update", "queued"}}));
    EXPECT_NE(queued, base);
    // ...but spelling out the inline default aliases the cache entry of
    // a config that never names the key.
    EXPECT_EQ(scenarioHash(withSets({{"counter-update", "inline"}})),
              base);
}

// A queued canonical key ends in `corepar=off\ncounter-update=queued\n`,
// so a sidecar stored under any other queued form is never served.
constexpr const char* kGoldenQueued = "5ecd82b4387caf7c";

// The on-disk contract: these exact values name sidecar files in every
// existing cache directory. If a change here is intentional, bump the
// canonical format tag (qprac-scenario-v1) so old entries are orphaned
// loudly, and re-pin.
TEST(ScenarioHash, GoldenValues)
{
    EXPECT_EQ(scenarioHashHex(withSets({{"source", "workload:429.mcf"},
                                        {"insts", "20000"},
                                        {"cores", "1"},
                                        {"nmit", "1"}})),
              "79cee55c7dfaaef6");
    EXPECT_EQ(scenarioHashHex(withSets({{"source", "workload:429.mcf"},
                                        {"insts", "20000"},
                                        {"cores", "1"},
                                        {"nmit", "2"}})),
              "cd40735f2630d8a7");
    // The queued variant appends counter-update to the canonical form;
    // the inline pins above must never move (existing cache entries
    // stay valid).
    EXPECT_EQ(scenarioHashHex(withSets({{"source", "workload:429.mcf"},
                                        {"insts", "20000"},
                                        {"cores", "1"},
                                        {"nmit", "1"},
                                        {"counter-update", "queued"}})),
              kGoldenQueued);
}

} // namespace
