/**
 * @file
 * Full-system integration tests: cores + LLC + controller + DRAM +
 * mitigation running together.
 */
#include <gtest/gtest.h>

#include "sim/scenario.h"

using namespace qprac;
using sim::ScenarioConfig;
using sim::SimResult;

namespace {

/** A short 2-core scenario of @p mitigation on @p workload. */
ScenarioConfig
quickCfg(const std::string& workload, const std::string& mitigation,
         std::uint64_t insts = 30'000, int nbo = 32)
{
    ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", workload, &err) &&
                cfg.set("mitigation", mitigation, &err) &&
                cfg.set("insts", std::to_string(insts), &err) &&
                cfg.set("nbo", std::to_string(nbo), &err) &&
                cfg.set("cores", "2", &err) && cfg.set("threads", "1", &err))
        << err;
    return cfg;
}

SimResult
run(const std::string& workload, const std::string& mitigation,
    std::uint64_t insts = 30'000, int nbo = 32)
{
    return sim::runScenario(quickCfg(workload, mitigation, insts, nbo)).sim;
}

} // namespace

TEST(SystemIntegration, BaselineRunCompletes)
{
    SimResult r = run("429.mcf", "none");
    EXPECT_GT(r.ipc_sum, 0.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.acts, 0.0);
    EXPECT_GT(r.rbmpki, 1.0); // mcf is memory-intensive
    EXPECT_EQ(r.stats.get("ctrl.alerts"), 0.0);
}

TEST(SystemIntegration, LowIntensityWorkloadHasLowRbmpki)
{
    SimResult r = run("511.povray_r", "none");
    EXPECT_LT(r.rbmpki, 2.0);
    EXPECT_GT(r.ipc_sum, 2.0); // barely memory-bound: high IPC
}

TEST(SystemIntegration, QpracRunsCloseToBaseline)
{
    SimResult rb = run("429.mcf", "none");
    SimResult rq = run("429.mcf", "qprac");
    double norm = rq.ipc_sum / rb.ipc_sum;
    EXPECT_GT(norm, 0.90);
    EXPECT_LE(norm, 1.02);
}

TEST(SystemIntegration, ProactiveEliminatesAlerts)
{
    // Short runs accumulate modest per-row counts; a low NBO recreates
    // the alert dynamics of a long NBO=32 run.
    SimResult rn = run("510.parest_r", "qprac-noop", 60'000, 8);
    SimResult rp = run("510.parest_r", "qprac+proactive", 60'000, 8);
    EXPECT_GT(rn.alerts_per_trefi, 0.05);
    EXPECT_LT(rp.alerts_per_trefi, rn.alerts_per_trefi * 0.5);
    EXPECT_GT(rp.stats.get("mit.proactive_mitigations"), 0.0);
}

TEST(SystemIntegration, OpportunisticReducesAlertsVsNoOp)
{
    SimResult rn = run("429.mcf", "qprac-noop", 60'000, 8);
    SimResult rq = run("429.mcf", "qprac", 60'000, 8);
    EXPECT_GT(rn.alerts_per_trefi, 0.0);
    EXPECT_LT(rq.alerts_per_trefi, rn.alerts_per_trefi);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    SimResult a = run("450.soplex", "qprac", 10'000);
    SimResult b = run("450.soplex", "qprac", 10'000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_DOUBLE_EQ(a.ipc_sum, b.ipc_sum);
}

TEST(SystemIntegration, RunComparisonComputesNormPerf)
{
    // baseline=true pairs a design run with its insecure baseline.
    for (const char* workload : {"403.gcc", "429.mcf"}) {
        ScenarioConfig cfg =
            quickCfg(workload, "qprac+proactive-ea", 15'000);
        std::string err;
        ASSERT_TRUE(cfg.set("baseline", "true", &err)) << err;
        sim::ScenarioResult r = sim::runScenario(cfg);
        ASSERT_TRUE(r.has_baseline);
        EXPECT_DOUBLE_EQ(r.norm_perf,
                         r.sim.ipc_sum / r.baseline_sim.ipc_sum);
        EXPECT_GT(r.norm_perf, 0.85);
        EXPECT_LT(r.norm_perf, 1.1);
        EXPECT_GT(r.baseline_sim.rbmpki, 0.0);
    }
}

TEST(SystemIntegration, StatsExportedCoherently)
{
    SimResult r = run("470.lbm", "qprac", 20'000);
    // Reads observed at the DRAM match LLC fills.
    EXPECT_NEAR(r.stats.get("dram.reads"),
                r.stats.get("ctrl.reads_done"), 1.0);
    EXPECT_GE(r.stats.get("llc.load_misses"),
              r.stats.get("dram.reads") -
                  r.stats.get("llc.mshr_merges") - 64.0);
    // Row hits + misses = CAS count bound.
    EXPECT_GE(r.stats.get("ctrl.row_hits"), r.stats.get("dram.reads"));
}
