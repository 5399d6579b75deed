/**
 * @file
 * Harness knobs and system wiring shared by every run: ExperimentConfig
 * (with its QPRAC_* environment defaults), the DesignSpec a scenario
 * resolves its design to, and makeSystemConfig, which joins the two
 * into a SystemConfig. Runs themselves go through the scenario API
 * (sim/scenario.h: runScenario, runSweep).
 */
#ifndef QPRAC_SIM_EXPERIMENT_H
#define QPRAC_SIM_EXPERIMENT_H

#include <cstdint>

#include "mitigations/rfm_policy.h"
#include "sim/system.h"

namespace qprac::sim {

/** One design under test: timing preset + ABO config + mitigation
 * (built by ScenarioConfig::design()). */
struct DesignSpec
{
    dram::TimingParams timing = dram::TimingParams::ddr5Prac();
    ctrl::AboConfig abo;
    mitigations::RfmPolicy rfm_policy;
    MitigationFactory factory; ///< null = no in-DRAM mitigation
};

/** Harness knobs. */
struct ExperimentConfig
{
    std::uint64_t insts_per_core = defaultInstsPerCore();
    int num_cores = 4;
    /** Fan-out budget: how many points runSweep simulates side by
     * side. Each run uses one thread. */
    int threads = defaultThreads();
    /**
     * Memory geometry. The paper evaluates one DDR5 channel (Table II);
     * benches keep that default so the paper figures are unchanged.
     * channels > 1 shards the memory system into independent
     * (controller, device, mitigation) triples.
     */
    int channels = 1;
    int ranks = 2;
    dram::MappingScheme mapping = dram::MappingScheme::RoRaBgBaCo;
    /** Subarray-level counter architecture (scenario keys subarrays= /
     * counter-update= / cuq_depth=); inline default = paper-faithful. */
    dram::CounterUpdateConfig counter_update;
    /**
     * Scaled-LLC methodology: short runs touch far fewer distinct lines
     * than the paper's 500M-instruction runs, so the 8MB LLC of Table II
     * would absorb the entire working set and suppress all DRAM row
     * reuse. The harness scales the LLC with the simulation length
     * (default 2MB at the default instruction count) to preserve the
     * paper's miss and activation behaviour; override with QPRAC_LLC_MB.
     */
    std::uint64_t llc_mb = defaultLlcMb();
    /**
     * Extra seed mixed into every trace RNG. 0 keeps the historical
     * per-(workload, core) seeding so existing goldens are unchanged;
     * any other value deterministically perturbs the whole run, and the
     * same value always reproduces it (no env vars required).
     */
    std::uint64_t seed = defaultSeed();
    /** Engine switches (skip); see sim/system.h. Autos resolve from
     * the config, never the host. */
    EngineOptions engine;

    /** QPRAC_INSTS env var, else 300000. */
    static std::uint64_t defaultInstsPerCore();

    /** QPRAC_SEED env var, else 0 (historical seeding). */
    static std::uint64_t defaultSeed();

    /** QPRAC_THREADS env var, else hardware concurrency. */
    static int defaultThreads();

    /** QPRAC_LLC_MB env var, else 2. */
    static std::uint64_t defaultLlcMb();
};

/** Fill a SystemConfig for one design. */
SystemConfig makeSystemConfig(const DesignSpec& design,
                              const ExperimentConfig& cfg);

} // namespace qprac::sim

#endif // QPRAC_SIM_EXPERIMENT_H
