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
    // The counter-architecture keys serialize only when counter-update
    // leaves the inline default (they are result-neutral layout
    // otherwise); every other hashed key always appears.
    std::vector<std::string> unless_inline;
    for (const auto& row : qprac::sim::scenarioKeyTable())
        if (row.hash == qprac::sim::KeyHashClass::UnlessInline)
            unless_inline.push_back(row.name);
    EXPECT_EQ(unless_inline, (std::vector<std::string>{
                                 "subarrays", "counter-update",
                                 "cuq_depth"}));
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
}

TEST(ScenarioHash, CounterUpdateKeysMoveTheHashOnlyWhenQueued)
{
    const std::uint64_t base = scenarioHash(ScenarioConfig{});
    // Leaving the inline default moves the hash...
    const std::uint64_t queued =
        scenarioHash(withSets({{"counter-update", "queued"}}));
    const std::uint64_t coalesced =
        scenarioHash(withSets({{"counter-update", "coalesced"}}));
    EXPECT_NE(queued, base);
    EXPECT_NE(coalesced, base);
    EXPECT_NE(queued, coalesced);
    // ...and so do subarrays/cuq_depth once off the critical path...
    EXPECT_NE(scenarioHash(withSets({{"counter-update", "queued"},
                                     {"subarrays", "128"}})),
              queued);
    EXPECT_NE(scenarioHash(withSets({{"counter-update", "queued"},
                                     {"cuq_depth", "32"}})),
              queued);
    // ...but with inline updates they are result-neutral storage
    // layout: explicit spellings alias the pre-subarray cache entry.
    EXPECT_EQ(scenarioHash(withSets({{"counter-update", "inline"}})),
              base);
    EXPECT_EQ(scenarioHash(withSets({{"subarrays", "128"}})), base);
    EXPECT_EQ(scenarioHash(withSets({{"cuq_depth", "32"}})), base);
}

constexpr const char* kGoldenQueued = "4845a83ddb7af038";
constexpr const char* kGoldenCoalesced = "f9a6d1e988409a9f";

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
    // Queued/coalesced variants append the counter-architecture keys
    // to the canonical form; the inline pins above must never move
    // (PR 7 cache compatibility).
    EXPECT_EQ(scenarioHashHex(withSets({{"source", "workload:429.mcf"},
                                        {"insts", "20000"},
                                        {"cores", "1"},
                                        {"nmit", "1"},
                                        {"counter-update", "queued"}})),
              kGoldenQueued);
    EXPECT_EQ(scenarioHashHex(withSets({{"source", "workload:429.mcf"},
                                        {"insts", "20000"},
                                        {"cores", "1"},
                                        {"nmit", "1"},
                                        {"counter-update", "coalesced"},
                                        {"subarrays", "128"}})),
              kGoldenCoalesced);
}

} // namespace
