/**
 * @file
 * Multi-bank performance (alert-storm) attack — paper §VI-E, Fig 19.
 *
 * The attacker keeps the controller's read queue saturated with
 * row-conflict requests that rotate over a per-bank carousel of rows,
 * driving banks to the Back-Off threshold as fast as possible so every
 * alert costs the channel an ABO window plus RFM time. The metric is
 * the loss of activation bandwidth versus an unprotected baseline.
 * The driver steps a one-channel ctrl::MemorySystem (MemorySystem::step),
 * acting whenever a controller event could have freed queue space.
 */
#ifndef QPRAC_ATTACKS_PERF_ATTACK_H
#define QPRAC_ATTACKS_PERF_ATTACK_H

#include "common/types.h"
#include "ctrl/memory_system.h"
#include "dram/mitigation_iface.h"

namespace qprac::attacks {

/** Attack/bench parameters. */
struct PerfAttackConfig
{
    int nbo = 32;
    int nmit = 1;
    dram::RfmScope scope = dram::RfmScope::AllBank;
    bool proactive = false;      ///< QPRAC+Proactive variant
    int carousel_rows = 16;      ///< stocked rows per attacked bank
    Cycle sim_cycles = 1'200'000; ///< ~375 us of DRAM time
    bool mitigation_enabled = true; ///< false = unprotected baseline
};

/** Measured activation throughput. */
struct PerfAttackResult
{
    std::uint64_t acts = 0;
    std::uint64_t alerts = 0;
    Cycle cycles = 0;
    ctrl::SkipStats skip; ///< engine counters (not part of the result)

    double actsPerKiloCycle() const
    {
        return cycles ? 1000.0 * static_cast<double>(acts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Run the attack against one configuration. */
PerfAttackResult runPerfAttack(const PerfAttackConfig& cfg);

/**
 * Bandwidth loss (%) of @p cfg versus the unprotected baseline, as
 * measured by the cycle-level simulation. NOTE: this measures a
 * concrete round-robin attacker; QPRAC's opportunistic draining blunts
 * it well below the analytical worst case (see EXPERIMENTS.md).
 */
double bandwidthLossPct(const PerfAttackConfig& cfg);

/**
 * Paper §VI-E worst-case model (Fig 19): an optimal attacker sustains
 * one alert per NBO activations issued at the saturated channel rate
 * (tRRD), each alert costing ABO-handling plus RFM time on the banks
 * the RFM scope covers. Proactive mitigation intercepts rows whose
 * climb to NBO takes longer than the REF cadence: it fully defeats the
 * attack once NBO * tRC >= tREFI and taxes it with retries below that.
 */
double analyticBandwidthLossPct(int nbo, dram::RfmScope scope,
                                bool proactive);

} // namespace qprac::attacks

#endif // QPRAC_ATTACKS_PERF_ATTACK_H
