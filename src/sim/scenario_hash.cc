#include "sim/scenario_hash.h"

#include <cstdio>
#include <string_view>

namespace qprac::sim {

namespace {

/**
 * Bumping this tag re-keys the whole cache; see the header contract.
 * v1: the Result keys in table order with a fixed empty `backend=`
 * line after `mitigation=`, a fixed `corepar=off` line, then the
 * UnlessInline keys when counter-update is not inline. (Neutral keys
 * are never serialized, so adding or removing one changes no canonical
 * key and needs no tag bump.)
 */
constexpr const char* kFormatTag = "qprac-scenario-v1";

std::vector<std::string>
keysWhere(bool hashed)
{
    std::vector<std::string> out;
    for (const auto& row : scenarioKeyTable())
        if ((row.hash != KeyHashClass::Neutral) == hashed)
            out.push_back(row.name);
    return out;
}

/**
 * @p cfg with each zero that experiment() resolves through QPRAC_INSTS,
 * QPRAC_LLC_MB or QPRAC_SEED replaced by the resolved value when the
 * environment moves it off the built-in default, so runs under
 * different environments never share a cache entry.
 */
ScenarioConfig
withEnvironmentDefaults(ScenarioConfig cfg)
{
    using E = ExperimentConfig;
    if (!cfg.insts && E::defaultInstsPerCore() != E::kBuiltinInstsPerCore)
        cfg.insts = E::defaultInstsPerCore();
    if (!cfg.llc_mb && E::defaultLlcMb() != E::kBuiltinLlcMb)
        cfg.llc_mb = E::defaultLlcMb();
    if (!cfg.seed)
        cfg.seed = E::defaultSeed(); // the built-in seed is 0
    return cfg;
}

} // namespace

const std::vector<std::string>&
scenarioHashedKeys()
{
    static const std::vector<std::string> keys = keysWhere(true);
    return keys;
}

const std::vector<std::string>&
scenarioHashExcludedKeys()
{
    static const std::vector<std::string> keys = keysWhere(false);
    return keys;
}

std::string
scenarioCanonicalKey(const ScenarioConfig& cfg)
{
    const ScenarioConfig resolved = withEnvironmentDefaults(cfg);
    std::string out = kFormatTag;
    out += '\n';
    auto append = [&](KeyHashClass hash) {
        for (const auto& row : scenarioKeyTable()) {
            if (row.hash != hash)
                continue;
            out += row.name;
            out += '=';
            out += row.field.print(resolved);
            out += '\n';
            // The retired backend key's line keeps old hashes and
            // sidecars valid.
            if (std::string_view(row.name) == "mitigation")
                out += "backend=\n";
        }
    };
    append(KeyHashClass::Result);
    // The retired corepar key's line keeps old hashes and sidecars valid.
    out += "corepar=off\n";
    if (cfg.counter_update != "inline")
        append(KeyHashClass::UnlessInline);
    return out;
}

std::uint64_t
fnv1a64(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
scenarioHash(const ScenarioConfig& cfg)
{
    return fnv1a64(scenarioCanonicalKey(cfg));
}

std::string
scenarioHashHex(const ScenarioConfig& cfg)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(scenarioHash(cfg)));
    return buf;
}

} // namespace qprac::sim
