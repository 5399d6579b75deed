/**
 * @file
 * Determinism suite for the epoch engine: the `threads` budget only
 * fans sweep points out, so a point must be bit-identical at every
 * budget — same SimResult JSON, same per-channel chK.* stats, same
 * engine counters — across channel counts, mapping schemes, sweeps and
 * the attack families. Thread count may only change wall clock, never
 * a single bit of simulation output.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/scenario.h"

using namespace qprac;
using sim::ScenarioConfig;
using sim::ScenarioResult;
using sim::SweepSpec;

namespace {

ScenarioConfig
baseConfig(int channels, const std::string& source)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", source, &err)) << err;
    cfg.channels = channels;
    cfg.mapping = channels > 1 ? "channel-striped" : "row-major";
    cfg.cores = 2;
    cfg.insts = 8'000;
    cfg.llc_mb = 2;
    return cfg;
}

/** Run with the given `threads` budget; returns the full result JSON. */
std::string
runWithThreads(ScenarioConfig cfg, int threads)
{
    cfg.threads = threads;
    ScenarioResult res = sim::runScenario(cfg);
    // resultJson() covers cycles, IPC doubles, every stat key (incl.
    // the chK.* per-channel copies) — the complete observable output.
    return res.resultJson();
}

} // namespace

TEST(Determinism, PerChannelStatsBitIdenticalUnderThreading)
{
    ScenarioConfig cfg = baseConfig(4, "510.parest_r");
    cfg.threads = 1;
    ScenarioResult serial = sim::runScenario(cfg);
    cfg.threads = 4;
    ScenarioResult threaded = sim::runScenario(cfg);
    // Every chK.* key exists in both and matches exactly (doubles
    // compared bit-for-bit via ==; these are counter exports).
    int chan_keys = 0;
    for (const auto& [name, value] : serial.sim.stats.entries()) {
        if (name.rfind("ch", 0) != 0)
            continue;
        ++chan_keys;
        ASSERT_TRUE(threaded.sim.stats.has(name)) << name;
        EXPECT_EQ(value, threaded.sim.stats.get(name)) << name;
    }
    EXPECT_GT(chan_keys, 0);
    EXPECT_EQ(serial.sim.cycles, threaded.sim.cycles);
    EXPECT_EQ(serial.sim.toJson(), threaded.sim.toJson());
}

TEST(Determinism, ThreadBudgetLeavesResultAndSkipStatsUnchanged)
{
    // A point runs one schedule on one thread whatever its budget, so
    // the engine counters --profile=engine prints are as budget-free
    // as the result document.
    ScenarioConfig cfg = baseConfig(2, "429.mcf");
    cfg.threads = 1;
    const ScenarioResult serial = sim::runScenario(cfg);
    cfg.threads = 4;
    const ScenarioResult budget = sim::runScenario(cfg);
    EXPECT_EQ(serial.resultJson(), budget.resultJson());
    EXPECT_GT(serial.sim.skip.wakes_epoch, 0u);
    EXPECT_EQ(serial.sim.skip.wakes_epoch, budget.sim.skip.wakes_epoch);
    EXPECT_EQ(serial.sim.skip.cycles_skipped,
              budget.sim.skip.cycles_skipped);
    EXPECT_TRUE(serial.sim.skip == budget.sim.skip);
}

TEST(Determinism, RepeatedThreadedRunsAreStable)
{
    // Not just threads==1 equivalence: the same threaded config twice.
    ScenarioConfig cfg = baseConfig(2, "450.soplex");
    EXPECT_EQ(runWithThreads(cfg, 4), runWithThreads(cfg, 4));
}

TEST(Determinism, AttackFamilyUnaffectedByThreadBudget)
{
    // Attack families are event-level models that currently build no
    // System and consult no thread budget, so today this passes by
    // construction. It pins the contract: if an attack family ever
    // grows a threaded execution path, its output must stay
    // budget-independent like everything else behind runScenario.
    ScenarioConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    cfg.nbo = 32;
    EXPECT_EQ(runWithThreads(cfg, 1), runWithThreads(cfg, 4));
}

TEST(Determinism, SweepResultsIdenticalAcrossThreadBudgets)
{
    // Points run side by side must still emit byte-identical per-point
    // results in enumerate() order.
    ScenarioConfig base = baseConfig(2, "429.mcf");
    base.insts = 5'000;
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(spec.add("nbo=32,64", &err)) << err;
    ASSERT_TRUE(spec.add("channels=1,2", &err)) << err;

    auto run_all = [&](int threads) {
        ScenarioConfig cfg = base;
        cfg.threads = threads;
        auto points = sim::runSweep(cfg, spec, &err);
        EXPECT_EQ(points.size(), 4u) << err;
        std::string out;
        for (const auto& p : points) {
            for (const auto& [key, value] : p.overrides)
                out += key + "=" + value + ";";
            out += p.result.resultJson() + "\n";
        }
        return out;
    };
    const std::string serial = run_all(1);
    EXPECT_EQ(serial, run_all(2));
    EXPECT_EQ(serial, run_all(4));
}

// --- Recovery policies (ctrl/recovery) --------------------------------

TEST(Determinism, RecoveryChannelStallIsTheDefaultBitIdentical)
{
    // recovery=channel-stall must be a no-op spelling of the default:
    // same cycles, same stats, bit for bit — on an alert-active config
    // (low NBO) where a recovery-path difference could not hide.
    for (int channels : {1, 2}) {
        ScenarioConfig def = baseConfig(channels, "510.parest_r");
        def.nbo = 8;
        ScenarioConfig stall = def;
        std::string err;
        ASSERT_TRUE(stall.set("recovery", "channel-stall", &err)) << err;
        EXPECT_EQ(sim::runScenario(def).resultJson(),
                  sim::runScenario(stall).resultJson())
            << "channels=" << channels;
    }
}

TEST(Determinism, BankIsolatedRecoveryActuallyChangesTheSimulation)
{
    // Plumbing proof: on the same alert-active config the isolated
    // policy must produce a different execution than channel-stall
    // (otherwise the axis silently no-ops).
    ScenarioConfig stall = baseConfig(1, "510.parest_r");
    stall.nbo = 8;
    stall.insts = 30'000; // long enough for PRAC counts to reach NBO
    ScenarioConfig isolated = stall;
    std::string err;
    ASSERT_TRUE(isolated.set("recovery", "bank-isolated", &err)) << err;
    ScenarioResult a = sim::runScenario(stall);
    ScenarioResult b = sim::runScenario(isolated);
    // Recoveries must actually have run for the comparison to mean
    // anything.
    EXPECT_GT(a.sim.stats.getOr("ctrl.alerts", 0), 0.0);
    EXPECT_GT(b.sim.stats.getOr("ctrl.alerts", 0), 0.0);
    EXPECT_NE(a.resultJson(), b.resultJson());
}

TEST(Determinism, IsolatedRecoveryDeterministicAcrossThreadsAndChannels)
{
    // Per-bank recovery state is shard-local; thread count must not
    // change a bit of it, at any channel count.
    for (int channels : {1, 2, 4}) {
        ScenarioConfig cfg = baseConfig(channels, "510.parest_r");
        cfg.nbo = 8; // alert-active so recoveries actually run
        cfg.insts = 20'000;
        std::string err;
        ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
        EXPECT_EQ(runWithThreads(cfg, 1), runWithThreads(cfg, 4))
            << "channels=" << channels;
    }
}

TEST(Determinism, RecoveryAttacksUnaffectedByThreadBudget)
{
    // The recovery attack drivers step a MemorySystem on the calling
    // thread (MemorySystem::step); like every attack family their
    // output must be budget-independent.
    for (const char* source : {"attack:rfm-probe", "attack:recovery-dos"}) {
        ScenarioConfig cfg;
        std::string err;
        ASSERT_TRUE(cfg.set("source", source, &err)) << err;
        ASSERT_TRUE(cfg.set("channels", "2", &err)) << err;
        ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
        ASSERT_TRUE(cfg.set("attack_cycles", "40000", &err)) << err;
        const std::string serial = runWithThreads(cfg, 1);
        EXPECT_EQ(serial, runWithThreads(cfg, 4)) << source;
    }
}

// --- Subarray counter architecture (dram/counter_update) --------------

TEST(Determinism, QueuedCounterUpdatesBitIdenticalAcrossEngines)
{
    // The per-bank write-back queues live entirely inside the owning
    // shard and advance only at command time, so queued/coalesced runs
    // must be bit-identical across thread budgets and channel counts —
    // same bar as every other subsystem.
    for (const char* mode : {"queued", "coalesced"}) {
        for (int channels : {1, 2}) {
            ScenarioConfig cfg = baseConfig(channels, "429.mcf");
            std::string err;
            ASSERT_TRUE(cfg.set("counter-update", mode, &err)) << err;
            EXPECT_EQ(runWithThreads(cfg, 1), runWithThreads(cfg, 4))
                << mode << " channels=" << channels;
        }
    }
}

TEST(Determinism, QueuedCounterUpdatesActuallyChangeTheSimulation)
{
    // Plumbing proof for the new axis: off-critical-path updates run
    // banks on the conventional split, so the execution must differ
    // from inline (otherwise the key silently no-ops).
    ScenarioConfig inline_cfg = baseConfig(1, "429.mcf");
    ScenarioConfig queued_cfg = baseConfig(1, "429.mcf");
    std::string err;
    ASSERT_TRUE(queued_cfg.set("counter-update", "queued", &err)) << err;
    EXPECT_NE(runWithThreads(inline_cfg, 1),
              runWithThreads(queued_cfg, 1));
}

TEST(Determinism, RecoveryAttacksUnderCoalescedCounterUpdates)
{
    // Satellite rerun of the PR 5 attack suite on the new counter
    // architecture: still thread-budget independent, and the leakage /
    // DoS observables must actually be measured (non-empty probe
    // phases) under coalesced updates.
    for (const char* source : {"attack:rfm-probe", "attack:recovery-dos"}) {
        ScenarioConfig cfg;
        std::string err;
        ASSERT_TRUE(cfg.set("source", source, &err)) << err;
        ASSERT_TRUE(cfg.set("channels", "2", &err)) << err;
        ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
        ASSERT_TRUE(cfg.set("counter-update", "coalesced", &err)) << err;
        ASSERT_TRUE(cfg.set("attack_cycles", "40000", &err)) << err;
        ScenarioResult res = sim::runScenario(cfg);
        const std::string serial = res.resultJson();
        EXPECT_EQ(serial, runWithThreads(cfg, 4)) << source;
        // The drivers recorded real attack activity and victim probes.
        EXPECT_GT(res.stats.getOr("attack.attacker_acts", 0), 0.0)
            << source;
        if (std::string(source) == "attack:rfm-probe") {
            EXPECT_GT(res.stats.getOr("attack.near_probes", 0), 0.0);
            EXPECT_TRUE(res.stats.has("attack.leakage_signal"));
        } else {
            EXPECT_GT(res.stats.getOr("attack.victim_probes", 0), 0.0);
            EXPECT_TRUE(res.stats.has("attack.victim_slowdown"));
        }
    }
}

TEST(Determinism, ThreadsKeyValidatesAndSupportsAuto)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("threads", "auto", &err)) << err;
    EXPECT_EQ(cfg.threads, 0);
    EXPECT_TRUE(cfg.set("threads", "3", &err)) << err;
    EXPECT_EQ(cfg.threads, 3);
    EXPECT_FALSE(cfg.set("threads", "many", &err));
    EXPECT_FALSE(cfg.set("threads", "-1", &err));
    EXPECT_FALSE(cfg.set("threads", "5000", &err));
}

// --- The one engine schedule and the retired schedule keys ------------

TEST(Determinism, PipelinedStealingEngineBitIdenticalToSerialV1)
{
    // The heart of the engine contract: neither the thread budget nor
    // the retired `steal` and `pipeline` keys change a bit. They are
    // set both ways to pin that old configs carrying them load and
    // reproduce the serial threads=1 run at every channel count.
    for (int channels : {1, 2, 4, 8}) {
        ScenarioConfig serial = baseConfig(channels, "429.mcf");
        std::string err;
        ASSERT_TRUE(serial.set("pipeline", "on", &err)) << err;
        ASSERT_TRUE(serial.set("steal", "off", &err)) << err;
        const std::string golden = runWithThreads(serial, 1);

        ScenarioConfig pooled = baseConfig(channels, "429.mcf");
        ASSERT_TRUE(pooled.set("pipeline", "off", &err)) << err;
        ASSERT_TRUE(pooled.set("steal", "on", &err)) << err;
        EXPECT_EQ(golden, runWithThreads(pooled, 4))
            << "channels=" << channels;
    }
}

TEST(Determinism, EngineKeysValidateAndRoundTrip)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_EQ(cfg.get("skip"), "auto");
    EXPECT_TRUE(cfg.set("skip", "on", &err)) << err;
    EXPECT_EQ(cfg.get("skip"), "on");
    EXPECT_TRUE(cfg.set("skip", "off", &err)) << err;
    EXPECT_EQ(cfg.get("skip"), "off");
    EXPECT_TRUE(cfg.set("skip", "auto", &err)) << err;
    EXPECT_FALSE(cfg.set("skip", "maybe", &err));
    // Retired keys: every old spelling still loads, except
    // corepar=on, whose threaded-core mode no longer exists.
    for (const char* key : {"steal", "pipeline"})
        for (const char* value :
             {"auto", "on", "off", "true", "false", "1", "0"})
            EXPECT_TRUE(cfg.set(key, value, &err))
                << key << "=" << value << ": " << err;
    for (const char* value : {"auto", "off", "false", "0"})
        EXPECT_TRUE(cfg.set("corepar", value, &err))
            << value << ": " << err;
    for (const char* value : {"on", "true", "1"}) {
        EXPECT_FALSE(cfg.set("corepar", value, &err)) << value;
        EXPECT_NE(err.find("removed"), std::string::npos) << err;
    }
    // The retired keys are not part of the key schema: no keys()
    // entry, no sweep axis...
    const auto& keys = ScenarioConfig::keys();
    for (const char* key : {"steal", "pipeline", "corepar"}) {
        EXPECT_FALSE(cfg.set(key, "maybe", &err)) << key;
        EXPECT_EQ(std::find(keys.begin(), keys.end(), key), keys.end())
            << key;
    }
    SweepSpec spec;
    EXPECT_FALSE(spec.add("pipeline=off,on", &err));
    EXPECT_NE(err.find("unknown config key"), std::string::npos) << err;
    // ...the INI round-trip carries the live engine keys and drops the
    // retired ones...
    ASSERT_TRUE(cfg.set("skip", "off", &err)) << err;
    const std::string ini = cfg.toIni();
    EXPECT_EQ(ini.find("steal"), std::string::npos) << ini;
    EXPECT_EQ(ini.find("pipeline"), std::string::npos) << ini;
    EXPECT_EQ(ini.find("corepar"), std::string::npos) << ini;
    ScenarioConfig parsed;
    ASSERT_TRUE(ScenarioConfig::fromIniText(ini, &parsed, &err)) << err;
    EXPECT_EQ(parsed.get("skip"), "off");
    EXPECT_EQ(parsed.toIni(), ini);
    // ...while an old INI that still names them loads unchanged.
    ScenarioConfig legacy;
    ASSERT_TRUE(ScenarioConfig::fromIniText(
        ini + "steal = on\npipeline = off\ncorepar = off\n", &legacy,
        &err))
        << err;
    EXPECT_EQ(legacy.toIni(), ini);
    // And an old INI pinning pipeline = off runs the same simulation.
    ScenarioConfig old = baseConfig(2, "429.mcf");
    ASSERT_TRUE(ScenarioConfig::fromIniText("pipeline=off", &old, &err));
    EXPECT_EQ(runWithThreads(old, 2),
              runWithThreads(baseConfig(2, "429.mcf"), 2));
}

TEST(Determinism, SweepReportsEngineThroughputBesideResults)
{
    // sim_cycles_per_sec lives beside each sweep point (never inside
    // the result document, which must stay machine-independent).
    ScenarioConfig base = baseConfig(1, "429.mcf");
    base.insts = 4'000;
    SweepSpec spec;
    std::string err;
    ASSERT_TRUE(spec.add("skip=off,on", &err)) << err;
    auto points = sim::runSweep(base, spec, &err);
    ASSERT_EQ(points.size(), 2u) << err;
    for (const auto& p : points) {
        EXPECT_GT(p.wall_ms, 0.0);
        EXPECT_GT(p.sim_cycles_per_sec, 0.0);
        // And the result JSON carries no timing keys.
        EXPECT_EQ(p.result.resultJson().find("wall_ms"),
                  std::string::npos);
        EXPECT_EQ(p.result.resultJson().find("sim_cycles_per_sec"),
                  std::string::npos);
    }
    // Identical simulation output, whether or not cycles are skipped.
    EXPECT_EQ(points[0].result.resultJson(),
              points[1].result.resultJson());
}
