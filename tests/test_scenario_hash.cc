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
#include <cstdlib>
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
    // threads / skip are bit-identity-guaranteed by the determinism
    // suite, and the retired steal and pipeline keys are ignored, so
    // every combination shares one cache entry.
    EXPECT_EQ(scenarioHash(withSets({{"threads", "4"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"threads", "1"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"pipeline", "on"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"steal", "off"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"skip", "on"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"skip", "off"}})), h);
    EXPECT_EQ(scenarioHash(withSets({{"threads", "8"},
                                     {"pipeline", "off"},
                                     {"steal", "on"},
                                     {"skip", "off"}})),
              h);
    // ...and the canonical key never even mentions them.
    const std::string key = scenarioCanonicalKey(base);
    EXPECT_EQ(key.find("threads="), std::string::npos) << key;
    EXPECT_EQ(key.find("pipeline="), std::string::npos) << key;
    EXPECT_EQ(key.find("steal="), std::string::npos) << key;
    EXPECT_EQ(key.find("skip="), std::string::npos) << key;
}

TEST(ScenarioHash, EnvironmentResolvedDefaultsMoveTheHash)
{
    // insts=default, seed=0 and llc_mb=0 resolve from QPRAC_INSTS /
    // QPRAC_SEED / QPRAC_LLC_MB at run time, so the hash must follow
    // the variable: a cached result never outlives an environment
    // change, and the variable set to N hashes like the key set to N.
    // Unset, the sentinel spelling stays (existing sidecars still hit).
    const std::vector<std::vector<std::string>> cases = {
        {"QPRAC_INSTS", "insts", "default"},
        {"QPRAC_SEED", "seed", "0"},
        {"QPRAC_LLC_MB", "llc_mb", "0"}};
    for (const auto& c : cases) {
        const char* var = c[0].c_str();
        const ScenarioConfig cfg = withSets({{c[1], c[2]}});
        unsetenv(var);
        EXPECT_NE(scenarioCanonicalKey(cfg).find("\n" + c[1] + "=" + c[2]),
                  std::string::npos)
            << var;
        const std::uint64_t unset = scenarioHash(cfg);
        setenv(var, "2000", 1);
        const std::uint64_t h2000 = scenarioHash(cfg);
        setenv(var, "5000", 1);
        const std::uint64_t h5000 = scenarioHash(cfg);
        const std::uint64_t explicit5000 =
            scenarioHash(withSets({{c[1], "5000"}}));
        unsetenv(var);
        EXPECT_NE(h2000, h5000) << var;
        EXPECT_NE(h2000, unset) << var;
        EXPECT_EQ(h5000, explicit5000) << var;
    }
}

TEST(ScenarioHash, CanonicalKeyKeepsRetiredCoreparLine)
{
    // corepar left the key schema, but its constant `corepar=off` line
    // stays right after attack_cycles so pre-retirement canonical keys,
    // golden hashes and cache sidecars stay valid.
    const std::string key = scenarioCanonicalKey(ScenarioConfig{});
    EXPECT_NE(key.find("\nattack_cycles=default\ncorepar=off\n"),
              std::string::npos)
        << key;
    // Both surviving spellings of the retired key alias the default.
    const std::uint64_t base = scenarioHash(ScenarioConfig{});
    EXPECT_EQ(scenarioHash(withSets({{"corepar", "auto"}})), base);
    EXPECT_EQ(scenarioHash(withSets({{"corepar", "off"}})), base);
}

TEST(ScenarioHash, ResultBearingKeysEachMoveTheHash)
{
    const std::uint64_t base = scenarioHash(ScenarioConfig{});
    const std::vector<std::pair<std::string, std::string>> changes = {
        {"source", "workload:470.lbm"},
        {"mitigation", "moat"},
        {"backend", "coalescing"},
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

namespace {

bool
isCounterArchKey(const std::string& key)
{
    return key == "subarrays" || key == "counter-update" ||
           key == "cuq_depth";
}

} // namespace

TEST(ScenarioHash, CanonicalKeyShape)
{
    // The counter-architecture keys serialize only when counter-update
    // leaves the inline default (they are result-neutral layout
    // otherwise); every other hashed key always appears.
    const std::string key = scenarioCanonicalKey(ScenarioConfig{});
    EXPECT_EQ(key.rfind("qprac-scenario-v1\n", 0), 0u) << key;
    for (const auto& hashed : scenarioHashedKeys()) {
        if (isCounterArchKey(hashed)) {
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

std::vector<std::string>
sorted(std::vector<std::string> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/** A small alert-active system point and a recovery attack point. */
std::vector<ScenarioConfig>
propertyPoints()
{
    return {withSets({{"source", "workload:429.mcf"},
                      {"insts", "3000"},
                      {"cores", "1"},
                      {"channels", "2"},
                      {"mapping", "channel-striped"},
                      {"nbo", "8"},
                      {"threads", "1"}}),
            withSets({{"source", "attack:rfm-probe"},
                      {"attack_cycles", "20000"},
                      {"nbo", "8"},
                      {"recovery", "bank-isolated"},
                      {"threads", "1"}})};
}

std::string
resultOf(const ScenarioConfig& cfg)
{
    return qprac::sim::runScenario(cfg).resultJson();
}

TEST(ScenarioHash, NeutralRowsLeaveResultsByteIdentical)
{
    // The hash drops the neutral rows on the claim that they never
    // change a result; check the claim itself. trace-out comes before
    // trace so the trace lands in the test's temp directory.
    const std::vector<std::pair<std::string, std::string>> neutral = {
        {"threads", "2"},
        {"steal", "on"},
        {"pipeline", "on"},
        {"skip", "off"},
        {"trace-out", testing::TempDir() + "neutral_trace.json"},
        {"trace", "all"},
        {"metrics-interval", "500"}};
    std::vector<std::string> table, covered;
    for (const auto& k : qprac::sim::scenarioKeyTable())
        if (k.neutral)
            table.push_back(k.name);
    for (const auto& [key, value] : neutral)
        covered.push_back(key);
    ASSERT_EQ(sorted(covered), sorted(table))
        << "every neutral row needs a value here";

    for (ScenarioConfig cfg : propertyPoints()) {
        const std::string ref = resultOf(cfg);
        // Cumulative, so a key that breaks the claim fails at its step.
        for (const auto& [key, value] : neutral) {
            std::string err;
            ASSERT_TRUE(cfg.set(key, value, &err)) << err;
            EXPECT_EQ(resultOf(cfg), ref)
                << key << "=" << value << " moved " << cfg.source;
        }
    }
}

TEST(ScenarioHash, OneHashPerQueueDesign)
{
    // The linear CAM has one spelling in the canonical form (the
    // default, empty backend), so every way of asking for it — and the
    // retired, decision-equivalent heap — names one cache entry and
    // one result.
    ScenarioConfig linear = propertyPoints()[0];
    const std::uint64_t hash = scenarioHash(linear);
    const std::string result = resultOf(linear);
    for (const char* spelling : {"linear", "cam", "heap"}) {
        ScenarioConfig cfg = linear;
        std::string err;
        ASSERT_TRUE(cfg.set("backend", spelling, &err)) << err;
        EXPECT_EQ(cfg.backend, "");
        EXPECT_EQ(scenarioHash(cfg), hash) << spelling;
        EXPECT_EQ(resultOf(cfg), result) << spelling;
    }
    for (const char* spelling : {"coalesce", "cnc"})
        EXPECT_EQ(scenarioHash(withSets({{"backend", spelling}})),
                  scenarioHash(withSets({{"backend", "coalescing"}})))
            << spelling;

    // A backend is never part of a design name, and the bank-group
    // recovery middle point is gone (not aliased: it blocked more).
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(cfg.set("mitigation", "qprac@heap", &err));
    EXPECT_NE(err.find("backend="), std::string::npos) << err;
    EXPECT_FALSE(cfg.set("recovery", "group-isolated", &err));
}

TEST(ScenarioHash, OmittedCounterArchKeysLeaveInlineResultsByteIdentical)
{
    // Under counter-update=inline the hash omits the other
    // counter-architecture rows; flipping them must not move a result.
    const std::vector<std::pair<std::string, std::string>> flips = {
        {"subarrays", "128"}, {"cuq_depth", "4"}};
    std::vector<std::string> table, covered;
    for (const auto& k : qprac::sim::scenarioKeyTable())
        if (k.omit && std::string(k.name) != "counter-update")
            table.push_back(k.name);
    for (const auto& [key, value] : flips)
        covered.push_back(key);
    ASSERT_EQ(sorted(covered), sorted(table));

    for (ScenarioConfig cfg : propertyPoints()) {
        ASSERT_EQ(cfg.counter_update, "inline");
        const std::string ref = resultOf(cfg);
        for (const auto& [key, value] : flips) {
            std::string err;
            ASSERT_TRUE(cfg.set(key, value, &err)) << err;
            EXPECT_EQ(resultOf(cfg), ref)
                << key << "=" << value << " moved " << cfg.source;
        }
    }
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
