#include "sim/experiment.h"

#include <algorithm>
#include <cstdlib>

#include "common/parallel.h"
#include "common/parse.h"

namespace qprac::sim {

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

} // namespace qprac::sim
