#include "sim/scenario_hash.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace qprac::sim {

namespace {

/**
 * Bumping this tag re-keys the whole cache; see the header contract.
 * v1: all ScenarioConfig keys except threads/skip and the
 * observability keys (trace/trace-out/metrics-interval), plus a
 * constant corepar=off line after attack_cycles (the retired
 * threaded-core key, whose only surviving value is off). Excluded keys
 * are never serialized, so adding `skip` and the observability keys
 * changed no canonical key and needed no tag bump. The
 * counter-architecture keys (subarrays, counter-update, cuq_depth)
 * serialize only when counter-update is not inline: with inline
 * updates they cannot affect any result, and omitting them keeps every
 * pre-subarray cache entry and golden hash valid without a tag bump.
 * Likewise insts/seed/llc_mb serialize an environment-resolved value
 * only when the environment supplies one.
 */
constexpr const char* kFormatTag = "qprac-scenario-v1";

/** Keys serialized only when the config leaves the inline default. */
bool
isCounterArchKey(const std::string& key)
{
    return key == "subarrays" || key == "counter-update" ||
           key == "cuq_depth";
}

/**
 * The canonical value of @p key: its get() spelling, except that a
 * harness-default sentinel the environment resolves serializes as the
 * value ScenarioConfig::experiment() will run.
 */
std::string
canonicalValue(const ScenarioConfig& cfg, const std::string& key)
{
    if (key == "insts" && std::getenv("QPRAC_INSTS"))
        return std::to_string(cfg.experiment().insts_per_core);
    if (key == "seed" && std::getenv("QPRAC_SEED"))
        return std::to_string(cfg.experiment().seed);
    if (key == "llc_mb" && std::getenv("QPRAC_LLC_MB"))
        return std::to_string(cfg.experiment().llc_mb);
    return cfg.get(key);
}

bool
isExcluded(const std::string& key)
{
    const auto& excluded = scenarioHashExcludedKeys();
    return std::find(excluded.begin(), excluded.end(), key) !=
           excluded.end();
}

} // namespace

const std::vector<std::string>&
scenarioHashedKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const auto& key : ScenarioConfig::keys())
            if (!isExcluded(key))
                out.push_back(key);
        return out;
    }();
    return keys;
}

const std::vector<std::string>&
scenarioHashExcludedKeys()
{
    static const std::vector<std::string> keys = {
        "threads", "skip", "trace", "trace-out", "metrics-interval"};
    return keys;
}

std::string
scenarioCanonicalKey(const ScenarioConfig& cfg)
{
    std::string out = kFormatTag;
    out += '\n';
    const bool inline_updates = cfg.counter_update == "inline";
    for (const auto& key : scenarioHashedKeys()) {
        if (inline_updates && isCounterArchKey(key))
            continue;
        out += key;
        out += '=';
        out += canonicalValue(cfg, key);
        out += '\n';
        if (key == "attack_cycles")
            out += "corepar=off\n"; // retired key; see the header
    }
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
