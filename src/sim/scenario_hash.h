/**
 * @file
 * Canonical content hashing for scenarios — the key of the
 * content-addressed result cache (sim/result_cache.h).
 *
 * A scenario's hash is a 64-bit FNV-1a over its canonical key=value
 * serialization (the same canonical forms the INI round-trip pins),
 * restricted to the keys that can change simulation *results*:
 *
 *  - `threads`, `pipeline` and `skip` are excluded. The
 *    engine guarantees (and the determinism suite pins) that thread
 *    counts, the v1/v2 schedule choice and cycle skipping are
 *    bit-identical, so a result computed at threads=4 with the
 *    pipelined skipping engine is the same result at threads=1 on the
 *    dense alternating engine.
 *  - `trace`, `trace-out` and `metrics-interval` are excluded. The
 *    observability layer (src/obs) records at state-change points and
 *    never perturbs simulation state, so a traced run's result is the
 *    untraced run's result.
 *  - A fixed `corepar=off` line follows `attack_cycles`. It is not a
 *    key: the threaded-core engine it named is gone, and the line stays
 *    so every existing hash and cache sidecar keeps its value.
 *  - The counter-architecture keys (`subarrays`, `counter-update`,
 *    `cuq_depth`) are hashed, but serialize only when `counter-update`
 *    is not `inline`: inline updates make them result-neutral storage
 *    layout, and omitting them keeps every pre-subarray cache entry
 *    valid (an inline config hashes exactly as it did before the keys
 *    existed).
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

/** ScenarioConfig::keys() minus the result-neutral engine keys. */
const std::vector<std::string>& scenarioHashedKeys();

/** The excluded (result-neutral) keys, for listings. */
const std::vector<std::string>& scenarioHashExcludedKeys();

/**
 * The exact byte string the hash runs over: a format tag line followed
 * by one `key=value` line per hashed key in canonical order. Stored
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
