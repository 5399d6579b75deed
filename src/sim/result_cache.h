/**
 * @file
 * Content-addressed result cache: scenario hash -> JSON sidecar.
 *
 * Every validated ScenarioConfig has a canonical 64-bit content hash
 * (sim/scenario_hash.h). The cache maps that hash to one sidecar file
 * `<dir>/<hash>.json` holding the scenario's result document — exactly
 * the `result` object the sweep JSON embeds — plus a header that makes
 * stale or damaged entries detectable:
 *
 *   {"cache_format": 1,
 *    "scenario_hash": "<16 hex>",
 *    "scenario_key": "<canonical hashed-key serialization>",
 *    "result": {...}}
 *
 * Lookup trusts nothing: the sidecar must parse, carry the current
 * format version, and match both the recomputed hash and the full
 * canonical key (so a hash collision or a stale file from an older
 * canonical form is a miss that gets recomputed and overwritten, never
 * a wrong answer). Stores are atomic (unique tmp file + rename), so
 * concurrent sweep workers racing on one point leave a valid sidecar —
 * both wrote the same bytes, rename picks one — and a reader never
 * observes a half-written file.
 *
 * Because the hash excludes the thread and engine keys and the result
 * document excludes wall-clock timing, a cache hit is byte-identical
 * to re-running the point (the determinism suite is the oracle): the
 * cache is a pure speedup. runSweep() consults it per point, which is
 * what makes interrupted grids resumable — rerunning a sweep skips
 * every point whose sidecar survived.
 */
#ifndef QPRAC_SIM_RESULT_CACHE_H
#define QPRAC_SIM_RESULT_CACHE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/scenario.h"

namespace qprac::sim {

class ResultCache
{
  public:
    /** Sidecar layout version; mismatches are recomputed. */
    static constexpr int kFormatVersion = 1;

    /**
     * @p dir is created if missing (empty = disabled cache, every
     * lookup misses and stores are dropped).
     */
    explicit ResultCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /** Sidecar path for @p cfg (valid whether or not the file exists). */
    std::string sidecarPath(const ScenarioConfig& cfg) const;

    /**
     * Load the cached result for @p cfg into *out (config is reset to
     * @p cfg; SimResult timing fields stay zero — the cached document
     * never carries wall-clock). False on any miss: absent, truncated,
     * corrupt, version-mismatched or collided sidecars all miss (and
     * count as rejected when a file was present but untrusted).
     */
    bool lookup(const ScenarioConfig& cfg, ScenarioResult* out);

    /**
     * Write @p res as the sidecar for @p cfg, atomically. False when
     * the cache is disabled or the filesystem refuses; a failed store
     * never leaves a partial sidecar behind.
     */
    bool store(const ScenarioConfig& cfg, const ScenarioResult& res);

    /** Cumulative counters (reported in sweep JSON / --hash). */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;   ///< includes rejected
        std::uint64_t rejected = 0; ///< present but untrusted
        std::uint64_t stored = 0;
    };

    Counters counters() const;

  private:
    std::string dir_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> stored_{0};
    std::atomic<std::uint64_t> tmp_seq_{0};
};

} // namespace qprac::sim

#endif // QPRAC_SIM_RESULT_CACHE_H
