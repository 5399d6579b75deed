/**
 * @file
 * Full-system integration tests: cores + LLC + controller + DRAM +
 * mitigation running together.
 */
#include <gtest/gtest.h>

#include "core/qprac.h"
#include "sim/experiment.h"
#include "sim/system.h"
#include "sim/workloads.h"

using namespace qprac;
using core::QpracConfig;
using sim::DesignSpec;
using sim::ExperimentConfig;
using sim::findWorkload;
using sim::makeTrace;
using sim::runOne;
using sim::SimResult;
using sim::System;
using sim::SystemConfig;

namespace {

ExperimentConfig
quickCfg(std::uint64_t insts = 30'000)
{
    ExperimentConfig cfg;
    cfg.insts_per_core = insts;
    cfg.num_cores = 2;
    cfg.threads = 1;
    return cfg;
}

} // namespace

TEST(SystemIntegration, BaselineRunCompletes)
{
    DesignSpec base;
    base.label = "baseline";
    base.abo.enabled = false;
    SimResult r = runOne(findWorkload("429.mcf"), base, quickCfg());
    EXPECT_GT(r.ipc_sum, 0.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.acts, 0.0);
    EXPECT_GT(r.rbmpki, 1.0); // mcf is memory-intensive
    EXPECT_EQ(r.stats.get("ctrl.alerts"), 0.0);
}

TEST(SystemIntegration, LowIntensityWorkloadHasLowRbmpki)
{
    DesignSpec base;
    base.abo.enabled = false;
    SimResult r = runOne(findWorkload("511.povray_r"), base, quickCfg());
    EXPECT_LT(r.rbmpki, 2.0);
    EXPECT_GT(r.ipc_sum, 2.0); // barely memory-bound: high IPC
}

TEST(SystemIntegration, QpracRunsCloseToBaseline)
{
    auto wl = findWorkload("429.mcf");
    auto cfg = quickCfg();
    DesignSpec base;
    base.abo.enabled = false;
    DesignSpec qprac = DesignSpec::qprac(QpracConfig::base(32, 1));
    SimResult rb = runOne(wl, base, cfg);
    SimResult rq = runOne(wl, qprac, cfg);
    double norm = rq.ipc_sum / rb.ipc_sum;
    EXPECT_GT(norm, 0.90);
    EXPECT_LE(norm, 1.02);
}

TEST(SystemIntegration, ProactiveEliminatesAlerts)
{
    // Short runs accumulate modest per-row counts; a low NBO recreates
    // the alert dynamics of a long NBO=32 run.
    auto wl = findWorkload("510.parest_r");
    auto cfg = quickCfg(60'000);
    DesignSpec noop = DesignSpec::qprac(QpracConfig::noOp(8, 1));
    DesignSpec pro = DesignSpec::qprac(QpracConfig::proactiveEvery(8, 1));
    SimResult rn = runOne(wl, noop, cfg);
    SimResult rp = runOne(wl, pro, cfg);
    EXPECT_GT(rn.alerts_per_trefi, 0.05);
    EXPECT_LT(rp.alerts_per_trefi, rn.alerts_per_trefi * 0.5);
    EXPECT_GT(rp.stats.get("mit.proactive_mitigations"), 0.0);
}

TEST(SystemIntegration, OpportunisticReducesAlertsVsNoOp)
{
    auto wl = findWorkload("429.mcf");
    auto cfg = quickCfg(60'000);
    SimResult rn =
        runOne(wl, DesignSpec::qprac(QpracConfig::noOp(8, 1)), cfg);
    SimResult rq =
        runOne(wl, DesignSpec::qprac(QpracConfig::base(8, 1)), cfg);
    EXPECT_GT(rn.alerts_per_trefi, 0.0);
    EXPECT_LT(rq.alerts_per_trefi, rn.alerts_per_trefi);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    auto wl = findWorkload("450.soplex");
    auto cfg = quickCfg(10'000);
    DesignSpec d = DesignSpec::qprac(QpracConfig::base(32, 1));
    SimResult a = runOne(wl, d, cfg);
    SimResult b = runOne(wl, d, cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_DOUBLE_EQ(a.ipc_sum, b.ipc_sum);
}

TEST(SystemIntegration, RunComparisonComputesNormPerf)
{
    std::vector<sim::Workload> wls = {findWorkload("403.gcc"),
                                      findWorkload("429.mcf")};
    std::vector<DesignSpec> designs = {
        DesignSpec::qprac(QpracConfig::proactiveEa(32, 1))};
    auto rows = sim::runComparison(wls, designs, quickCfg(15'000));
    ASSERT_EQ(rows.size(), 2u);
    for (const auto& row : rows) {
        ASSERT_EQ(row.designs.size(), 1u);
        EXPECT_GT(row.designs[0].norm_perf, 0.85);
        EXPECT_LT(row.designs[0].norm_perf, 1.1);
        EXPECT_GT(row.base_rbmpki, 0.0);
    }
    EXPECT_GT(sim::geomeanNormPerf(rows, 0), 0.85);
}

TEST(SystemIntegration, StatsExportedCoherently)
{
    DesignSpec d = DesignSpec::qprac(QpracConfig::base(32, 1));
    SimResult r = runOne(findWorkload("470.lbm"), d, quickCfg(20'000));
    // Reads observed at the DRAM match LLC fills.
    EXPECT_NEAR(r.stats.get("dram.reads"),
                r.stats.get("ctrl.reads_done"), 1.0);
    EXPECT_GE(r.stats.get("llc.load_misses"),
              r.stats.get("dram.reads") -
                  r.stats.get("llc.mshr_merges") - 64.0);
    // Row hits + misses = CAS count bound.
    EXPECT_GE(r.stats.get("ctrl.row_hits"), r.stats.get("dram.reads"));
}
