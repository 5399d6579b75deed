/**
 * @file
 * Experiment harness: runs design-vs-baseline comparisons over the
 * workload suite, in parallel, and computes normalized weighted speedup
 * (the paper's performance metric for Figs 14-21).
 */
#ifndef QPRAC_SIM_EXPERIMENT_H
#define QPRAC_SIM_EXPERIMENT_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/qprac.h"
#include "mitigations/moat.h"
#include "mitigations/rfm_policy.h"
#include "sim/system.h"
#include "sim/workloads.h"

namespace qprac::sim {

/** One evaluated design: timing preset + ABO config + mitigation. */
struct DesignSpec
{
    std::string label;
    dram::TimingParams timing = dram::TimingParams::ddr5Prac();
    ctrl::AboConfig abo;
    mitigations::RfmPolicy rfm_policy;
    MitigationFactory factory; ///< null = no in-DRAM mitigation
    /** Designs sharing a key share one baseline run (same timing). */
    std::string baseline_key = "prac";

    /** QPRAC variant with matching ABO nmit and RFM scope. */
    static DesignSpec qprac(const core::QpracConfig& config,
                            dram::RfmScope scope = dram::RfmScope::AllBank);

    /** MOAT with ABO at the given NBO. */
    static DesignSpec moat(const mitigations::MoatConfig& config);

    /** PrIDE at a Rowhammer threshold (conventional DDR5 timings). */
    static DesignSpec pride(int trh);

    /** Mithril at a Rowhammer threshold (conventional DDR5 timings). */
    static DesignSpec mithril(int trh);
};

/** Result of one design on one workload. */
struct DesignResult
{
    std::string label;
    SimResult sim;
    double norm_perf = 1.0; ///< weighted speedup vs the insecure baseline
};

/** All results for one workload. */
struct WorkloadRow
{
    std::string workload;
    std::string suite;
    SimResult baseline; ///< insecure baseline with the primary timing
    double base_rbmpki = 0.0;
    std::vector<DesignResult> designs;
};

/** Harness knobs. */
struct ExperimentConfig
{
    std::uint64_t insts_per_core = defaultInstsPerCore();
    int num_cores = 4;
    int threads = defaultThreads();
    /**
     * Memory geometry. The paper evaluates one DDR5 channel (Table II);
     * benches and the experiment harness keep that default so the paper
     * figures are unchanged. channels > 1 shards the memory system into
     * independent (controller, device, mitigation) triples.
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
    /**
     * Worker threads for the per-channel shard engine inside one
     * System run. 0 = auto: min(channels, threads), i.e. a standalone
     * run spends its whole budget on shard parallelism. Harness layers
     * that already parallelize across runs (runComparison, runSweep)
     * set this to their per-run share via innerThreadBudget() so the
     * nesting never oversubscribes. Thread counts never change
     * simulation results.
     */
    int shard_threads = 0;
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

// parallelFor lives in common/parallel.h now; re-exported here because
// the whole harness historically reached it through sim::.
using qprac::parallelFor;

/** Fill a SystemConfig for one design (shared wiring for benches/tests). */
SystemConfig makeSystemConfig(const DesignSpec& design,
                              const ExperimentConfig& cfg);

/** Run one (workload, design) simulation. */
SimResult runOne(const Workload& workload, const DesignSpec& design,
                 const ExperimentConfig& cfg);

/**
 * Run the full comparison: for every workload, the per-baseline-key
 * insecure baselines plus every design; norm_perf is design IPC-sum over
 * its baseline's IPC-sum. Parallel across workloads; deterministic.
 */
std::vector<WorkloadRow> runComparison(const std::vector<Workload>& workloads,
                                       const std::vector<DesignSpec>& designs,
                                       const ExperimentConfig& cfg);

/** Geomean normalized performance of design @p idx across rows. */
double geomeanNormPerf(const std::vector<WorkloadRow>& rows, int idx);

/** Mean slowdown in percent (100 * (1 - norm_perf)), floored at 0. */
double meanSlowdownPct(const std::vector<WorkloadRow>& rows, int idx);

/** Mean alerts per tREFI for design @p idx. */
double meanAlertsPerTrefi(const std::vector<WorkloadRow>& rows, int idx);

} // namespace qprac::sim

#endif // QPRAC_SIM_EXPERIMENT_H
