/**
 * @file
 * Tests for the harness knobs and design wiring behind every scenario
 * run: the design each `mitigation` resolves to, the environment
 * defaults, SystemConfig plumbing, and the insecure baseline each
 * design normalizes against.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "dram/prac_counters.h"
#include "sim/scenario.h"

using namespace qprac;
using sim::DesignSpec;
using sim::ExperimentConfig;
using sim::ScenarioConfig;

namespace {

ScenarioConfig
scenario(const std::vector<std::pair<std::string, std::string>>& sets)
{
    ScenarioConfig cfg;
    std::string err;
    for (const auto& [key, value] : sets)
        EXPECT_TRUE(cfg.set(key, value, &err)) << err;
    return cfg;
}

} // namespace

TEST(DesignSpecTest, QpracPresetWiresAboAndFactory)
{
    DesignSpec d = scenario({{"mitigation", "qprac"}, {"nmit", "2"}}).design();
    EXPECT_TRUE(d.abo.enabled);
    EXPECT_EQ(d.abo.nmit, 2);
    EXPECT_EQ(d.timing.tRC, dram::TimingParams::ddr5Prac().tRC);
    ASSERT_TRUE(d.factory);
    dram::PracCounters ctrs(1, 64);
    auto mit = d.factory(&ctrs);
    ASSERT_NE(mit, nullptr);
    EXPECT_EQ(mit->name(), "QPRAC");
}

TEST(DesignSpecTest, PrideUsesOwnTimingAndBaseline)
{
    ScenarioConfig cfg = scenario({{"mitigation", "pride"}, {"nbo", "250"}});
    DesignSpec d = cfg.design();
    EXPECT_FALSE(d.abo.enabled);
    EXPECT_EQ(d.rfm_policy.acts_per_rfm, 10); // paper anchor at TRH 250
    EXPECT_LT(d.timing.tRC, dram::TimingParams::ddr5Prac().tRC);
    // Its baseline runs those timings too, and says so in the key.
    std::string err;
    ASSERT_TRUE(cfg.set("baseline", "true", &err)) << err;
    EXPECT_EQ(cfg.get("baseline"), "noprac");
}

TEST(DesignSpecTest, MithrilPacedDenserThanPride)
{
    DesignSpec m =
        scenario({{"mitigation", "mithril"}, {"nbo", "512"}}).design();
    DesignSpec p = scenario({{"mitigation", "pride"}, {"nbo", "512"}}).design();
    EXPECT_LE(m.rfm_policy.acts_per_rfm, p.rfm_policy.acts_per_rfm);
}

TEST(DesignSpecTest, MoatPreset)
{
    DesignSpec d = scenario({{"mitigation", "moat"}}).design();
    EXPECT_TRUE(d.abo.enabled);
    dram::PracCounters ctrs(1, 64);
    auto mit = d.factory(&ctrs);
    EXPECT_EQ(mit->name(), "MOAT");
}

TEST(ExperimentConfigTest, EnvOverrides)
{
    setenv("QPRAC_INSTS", "12345", 1);
    setenv("QPRAC_THREADS", "3", 1);
    setenv("QPRAC_LLC_MB", "7", 1);
    EXPECT_EQ(ExperimentConfig::defaultInstsPerCore(), 12345u);
    EXPECT_EQ(ExperimentConfig::defaultThreads(), 3);
    EXPECT_EQ(ExperimentConfig::defaultLlcMb(), 7u);
    // A scenario's unset knobs resolve to them.
    ExperimentConfig e = ScenarioConfig{}.experiment();
    EXPECT_EQ(e.insts_per_core, 12345u);
    EXPECT_EQ(e.threads, 3);
    EXPECT_EQ(e.llc_mb, 7u);
    unsetenv("QPRAC_INSTS");
    unsetenv("QPRAC_THREADS");
    unsetenv("QPRAC_LLC_MB");
    EXPECT_EQ(ExperimentConfig::defaultInstsPerCore(), 300'000u);
    EXPECT_GE(ExperimentConfig::defaultThreads(), 1);
    EXPECT_EQ(ExperimentConfig::defaultLlcMb(), 2u);
}

TEST(ExperimentConfigTest, SystemConfigPlumbing)
{
    ScenarioConfig cfg = scenario({{"insts", "777"},
                                   {"cores", "2"},
                                   {"llc_mb", "4"},
                                   {"mitigation", "qprac"},
                                   {"nmit", "4"}});
    sim::SystemConfig sys = sim::makeSystemConfig(cfg.design(),
                                                  cfg.experiment());
    EXPECT_EQ(sys.core.target_insts, 777u);
    EXPECT_EQ(sys.num_cores, 2);
    EXPECT_EQ(sys.llc.size_bytes, 4u * 1024 * 1024);
    EXPECT_EQ(sys.ctrl.abo.nmit, 4);
    EXPECT_TRUE(sys.ctrl.abo.enabled);
    // ...and runScenario simulates exactly that machine.
    sim::SimResult r = sim::runScenario(cfg).sim;
    ASSERT_EQ(r.core_ipc.size(), 2u);
    EXPECT_GE(r.stats.get("core1.retired"), 777.0);
    EXPECT_FALSE(r.stats.has("core2.retired"));
}

TEST(ExperimentRunner, SeparateBaselinesPerTimingKey)
{
    // A PRAC design and a no-PRAC design must each normalize against a
    // baseline with their own timings (Fig 20 methodology).
    const std::vector<std::pair<std::string, std::string>> point = {
        {"source", "workload:403.gcc"}, {"insts", "15000"},
        {"threads", "1"},               {"nbo", "1024"},
        {"baseline", "true"}};
    ScenarioConfig pride = scenario(point);
    ScenarioConfig qprac = scenario(point);
    ScenarioConfig none = scenario(point);
    std::string err;
    ASSERT_TRUE(pride.set("mitigation", "pride", &err)) << err;
    ASSERT_TRUE(qprac.set("mitigation", "qprac+proactive-ea", &err)) << err;
    ASSERT_TRUE(none.set("mitigation", "none", &err)) << err;
    sim::ScenarioResult p = sim::runScenario(pride);
    sim::ScenarioResult q = sim::runScenario(qprac);
    sim::ScenarioResult n = sim::runScenario(none);
    ASSERT_TRUE(p.has_baseline);
    // PrIDE's baseline is not the PRAC-timed insecure run...
    EXPECT_NE(p.baseline_sim.cycles, n.sim.cycles);
    // ...which is exactly the QPRAC design's baseline.
    EXPECT_EQ(q.baseline_sim.cycles, n.sim.cycles);
    EXPECT_DOUBLE_EQ(q.baseline_sim.ipc_sum, n.sim.ipc_sum);
    // Both normalize near 1.0 *against their own* baselines; a shared
    // baseline would skew PrIDE by the PRAC timing difference.
    EXPECT_GT(q.norm_perf, 0.9);
    EXPECT_GT(p.norm_perf, 0.9);
    EXPECT_LT(p.norm_perf, 1.1);
}
