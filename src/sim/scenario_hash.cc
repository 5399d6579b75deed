#include "sim/scenario_hash.h"

#include <cstdio>
#include <cstdlib>

namespace qprac::sim {

namespace {

/**
 * Bumping this tag re-keys the whole cache; see the header contract.
 * v1: the hashed rows of the key table (scenario.cc) in table order,
 * including the retired corepar row's constant `corepar=off` line.
 * Neutral keys are never serialized, so adding `skip` and the
 * observability keys changed no canonical key and needed no tag bump;
 * likewise the counter-architecture rows are omitted under inline
 * updates, and insts/seed/llc_mb serialize an environment-resolved
 * value only when the environment supplies one.
 */
constexpr const char* kFormatTag = "qprac-scenario-v1";

std::vector<std::string>
liveKeys(bool neutral)
{
    std::vector<std::string> out;
    for (const ScenarioKey& k : scenarioKeyTable())
        if (!k.retired && k.neutral == neutral)
            out.push_back(k.name);
    return out;
}

} // namespace

const std::vector<std::string>&
scenarioHashedKeys()
{
    static const std::vector<std::string> keys = liveKeys(false);
    return keys;
}

const std::vector<std::string>&
scenarioHashExcludedKeys()
{
    static const std::vector<std::string> keys = liveKeys(true);
    return keys;
}

std::string
scenarioCanonicalKey(const ScenarioConfig& cfg)
{
    std::string out = kFormatTag;
    out += '\n';
    for (const ScenarioKey& k : scenarioKeyTable()) {
        if (k.neutral || (k.omit && k.omit(cfg)))
            continue;
        out += k.name;
        out += '=';
        out += k.env && std::getenv(k.env)
                   ? std::to_string(cfg.experiment().*k.resolved)
                   : k.print(cfg);
        out += '\n';
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
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
scenarioHashHex(const ScenarioConfig& cfg)
{
    return hex64(scenarioHash(cfg));
}

} // namespace qprac::sim
