/**
 * @file
 * Canonical content hashing for scenarios — the key of the
 * content-addressed result cache (sim/result_cache.h).
 *
 * A scenario's hash is a 64-bit FNV-1a over its canonical key=value
 * serialization (the same canonical forms the INI round-trip pins),
 * restricted to the keys that can change simulation *results*. Each
 * key's hash class is declared in its scenarioKeyTable() row:
 *
 *  - Neutral keys are excluded: the engine keys (the determinism suite
 *    pins thread counts, the v1/v2 schedule and cycle skipping as
 *    bit-identical) and the observability keys (src/obs records at
 *    state-change points and never perturbs simulation state).
 *  - UnlessInline keys (today only `counter-update` itself) serialize
 *    only when `counter-update` is not `inline`, so an explicit
 *    `counter-update=inline` keeps the hash of a config that never
 *    names it.
 *  - A fixed `corepar=off` line follows the Result keys. It is not a
 *    key: the threaded-core engine it named is gone, and the line stays
 *    so every existing hash and cache sidecar keeps its value.
 *  - `insts=default`, `llc_mb=0` and `seed=0` resolve through
 *    QPRAC_INSTS, QPRAC_LLC_MB and QPRAC_SEED at run time. When one of
 *    them moves the value off its built-in default, the key carries
 *    the resolved value instead.
 *  - Timing observations (SweepPointResult::wall_ms /
 *    sim_cycles_per_sec) are outputs, not config, and never reach the
 *    hash or the cached result document.
 *
 * The serialization starts with a format tag, so any future change to
 * the canonical form bumps every hash at once instead of silently
 * aliasing old cache entries. Hash values are part of the on-disk
 * cache contract and are pinned by golden tests
 * (tests/test_scenario_hash.cc): do not change them casually.
 */
#ifndef QPRAC_SIM_SCENARIO_HASH_H
#define QPRAC_SIM_SCENARIO_HASH_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace qprac::sim {

/** ScenarioConfig::keys() minus the Neutral ones. */
const std::vector<std::string>& scenarioHashedKeys();

/** The Neutral (never hashed) keys. */
const std::vector<std::string>& scenarioHashExcludedKeys();

/**
 * The exact byte string the hash runs over: a format tag line followed
 * by one `key=value` line per hashed key in canonical order (see the
 * file comment for the corepar line and the inline skip). Stored
 * verbatim in cache sidecars as the collision/staleness guard (two
 * configs with equal hashes but different canonical keys never alias).
 */
std::string scenarioCanonicalKey(const ScenarioConfig& cfg);

/** 64-bit FNV-1a of scenarioCanonicalKey(). */
std::uint64_t scenarioHash(const ScenarioConfig& cfg);

/** scenarioHash() as 16 lowercase hex digits (sidecar file stem). */
std::string scenarioHashHex(const ScenarioConfig& cfg);

/** FNV-1a 64 over raw bytes (exposed for tests). */
std::uint64_t fnv1a64(const std::string& bytes);

} // namespace qprac::sim

#endif // QPRAC_SIM_SCENARIO_HASH_H
