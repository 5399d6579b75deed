/**
 * @file
 * Canonical content hashing for scenarios — the key of the
 * content-addressed result cache (sim/result_cache.h).
 *
 * A scenario's hash is a 64-bit FNV-1a over its canonical key=value
 * serialization (the same canonical forms the INI round-trip pins),
 * restricted to the keys that can change simulation *results*. Each
 * row of the key table (scenarioKeyTable(), sim/scenario.h) declares
 * its hash role:
 *
 *  - `neutral` rows are excluded: the determinism suite pins thread
 *    budgets and cycle skipping as bit-identical, and tracing never
 *    perturbs simulation state.
 *  - Rows with an `env` variable (QPRAC_INSTS / QPRAC_SEED /
 *    QPRAC_LLC_MB) serialize the resolved value while it is set, so a
 *    cached result never outlives a change of environment and the
 *    variable set to N hashes like the key set to N. Unset, they keep
 *    their sentinel spellings (`default`, `0`) and every older key.
 *  - The retired `corepar` row keeps a constant `corepar=off` line
 *    after `attack_cycles`, so every canonical key, golden hash and
 *    sidecar written before threaded cores were removed stays valid.
 *  - `omit` rows serialize only while their predicate is false: the
 *    counter-architecture keys are storage layout under inline
 *    updates, so an inline config hashes as it did before they existed.
 *  - Timing observations (wall_ms, sim_cycles_per_sec) are outputs,
 *    not config, and never reach the hash or the cached result.
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

/** ScenarioConfig::keys() minus the result-neutral keys. */
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
