#include "sim/experiment.h"

#include <cstdlib>
#include <map>

#include "common/log.h"
#include "common/parallel.h"
#include "common/parse.h"
#include "mitigations/factory.h"
#include "mitigations/mithril.h"
#include "mitigations/pride.h"

namespace qprac::sim {

namespace {

/** Construct through the MitigationRegistry — the single build path. */
MitigationFactory
registryFactory(std::string name, mitigations::MitigationParams params)
{
    return [name = std::move(name),
            params = std::move(params)](dram::PracCounters* counters) {
        return mitigations::MitigationRegistry::instance().create(
            name, params, counters);
    };
}

} // namespace

DesignSpec
DesignSpec::qprac(const core::QpracConfig& config, dram::RfmScope scope)
{
    DesignSpec d;
    d.label = config.label();
    d.abo.enabled = true;
    d.abo.nmit = config.nmit;
    d.abo.scope = scope;
    mitigations::MitigationParams p;
    p.nbo = config.nbo;
    p.nmit = config.nmit;
    p.qprac = config;
    d.factory = registryFactory(config.registryKey(), std::move(p));
    return d;
}

DesignSpec
DesignSpec::moat(const mitigations::MoatConfig& config)
{
    DesignSpec d;
    d.label = "MOAT";
    d.abo.enabled = true;
    d.abo.nmit = 1;
    mitigations::MitigationParams p;
    p.moat = config;
    d.factory = registryFactory("moat", std::move(p));
    return d;
}

DesignSpec
DesignSpec::pride(int trh)
{
    DesignSpec d;
    d.label = "PrIDE";
    d.timing = dram::TimingParams::ddr5NoPrac();
    d.baseline_key = "noprac";
    d.abo.enabled = false;
    d.rfm_policy = mitigations::RfmPolicy::forPride(trh);
    d.factory = registryFactory("pride", {});
    return d;
}

DesignSpec
DesignSpec::mithril(int trh)
{
    DesignSpec d;
    d.label = "Mithril";
    d.timing = dram::TimingParams::ddr5NoPrac();
    d.baseline_key = "noprac";
    d.abo.enabled = false;
    d.rfm_policy = mitigations::RfmPolicy::forMithril(trh);
    // Cap tracker size: entry count does not affect RFM pacing.
    auto cfg = mitigations::MithrilConfig::forTrh(trh);
    cfg.entries = std::min(cfg.entries, 512);
    mitigations::MitigationParams p;
    p.mithril = cfg;
    d.factory = registryFactory("mithril", std::move(p));
    return d;
}

std::uint64_t
ExperimentConfig::defaultInstsPerCore()
{
    return envU64("QPRAC_INSTS", 300'000);
}

std::uint64_t
ExperimentConfig::defaultLlcMb()
{
    return std::max<std::uint64_t>(1, envU64("QPRAC_LLC_MB", 2));
}

std::uint64_t
ExperimentConfig::defaultSeed()
{
    return envU64("QPRAC_SEED", 0);
}

int
ExperimentConfig::defaultThreads()
{
    if (std::getenv("QPRAC_THREADS"))
        return std::max(1, envIntInRange("QPRAC_THREADS", 0, 1 << 20, 0));
    return hardwareThreads();
}

SystemConfig
makeSystemConfig(const DesignSpec& design, const ExperimentConfig& cfg)
{
    SystemConfig sys;
    sys.timing = design.timing;
    sys.ctrl.abo = design.abo;
    sys.ctrl.rfm_policy = design.rfm_policy;
    sys.core.target_insts = cfg.insts_per_core;
    sys.num_cores = cfg.num_cores;
    sys.llc.size_bytes = cfg.llc_mb * 1024 * 1024;
    sys.org.channels = cfg.channels;
    sys.org.ranks = cfg.ranks;
    sys.mapping = cfg.mapping;
    sys.counter_update = cfg.counter_update;
    sys.threads = std::max(1, cfg.threads); // read by perfbench only
    sys.engine = cfg.engine;
    return sys;
}

SimResult
runOne(const Workload& workload, const DesignSpec& design,
       const ExperimentConfig& cfg)
{
    SystemConfig sys = makeSystemConfig(design, cfg);
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    for (int c = 0; c < cfg.num_cores; ++c)
        traces.push_back(makeTrace(workload, c, cfg.insts_per_core,
                                   cfg.seed));
    System system(sys, design.factory, std::move(traces));
    return system.run();
}

namespace {

DesignSpec
makeBaseline(const dram::TimingParams& timing, const std::string& key)
{
    DesignSpec d;
    d.label = "Baseline(" + key + ")";
    d.timing = timing;
    d.abo.enabled = false;
    d.factory = nullptr;
    d.baseline_key = key;
    return d;
}

} // namespace

std::vector<WorkloadRow>
runComparison(const std::vector<Workload>& workloads,
              const std::vector<DesignSpec>& designs,
              const ExperimentConfig& cfg)
{
    // Distinct baselines by key (designs with different timing presets
    // are normalized against a baseline with their own timings).
    std::map<std::string, DesignSpec> baselines;
    for (const auto& d : designs)
        if (!baselines.count(d.baseline_key))
            baselines.emplace(d.baseline_key,
                              makeBaseline(d.timing, d.baseline_key));
    const std::string primary_key = designs.empty()
                                        ? std::string("prac")
                                        : designs.front().baseline_key;

    std::vector<WorkloadRow> rows(workloads.size());
    parallelFor(workloads.size(), cfg.threads, [&](std::size_t i) {
        const Workload& wl = workloads[i];
        WorkloadRow row;
        row.workload = wl.name;
        row.suite = wl.suite;
        std::map<std::string, SimResult> base_results;
        for (const auto& [key, base] : baselines)
            base_results.emplace(key, runOne(wl, base, cfg));
        row.baseline = base_results.at(primary_key);
        row.base_rbmpki = row.baseline.rbmpki;
        for (const auto& d : designs) {
            DesignResult dr;
            dr.label = d.label;
            dr.sim = runOne(wl, d, cfg);
            double base_ipc = base_results.at(d.baseline_key).ipc_sum;
            dr.norm_perf =
                base_ipc > 0 ? dr.sim.ipc_sum / base_ipc : 0.0;
            row.designs.push_back(std::move(dr));
        }
        rows[i] = std::move(row);
    });
    return rows;
}

double
geomeanNormPerf(const std::vector<WorkloadRow>& rows, int idx)
{
    std::vector<double> values;
    for (const auto& row : rows)
        values.push_back(row.designs[static_cast<std::size_t>(idx)]
                             .norm_perf);
    return geomean(values);
}

double
meanSlowdownPct(const std::vector<WorkloadRow>& rows, int idx)
{
    double slowdown = 100.0 * (1.0 - geomeanNormPerf(rows, idx));
    return slowdown < 0.0 ? 0.0 : slowdown;
}

double
meanAlertsPerTrefi(const std::vector<WorkloadRow>& rows, int idx)
{
    std::vector<double> values;
    for (const auto& row : rows)
        values.push_back(row.designs[static_cast<std::size_t>(idx)]
                             .sim.alerts_per_trefi);
    return mean(values);
}

} // namespace qprac::sim
