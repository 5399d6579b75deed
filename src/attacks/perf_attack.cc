#include "attacks/perf_attack.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/qprac.h"

namespace qprac::attacks {

namespace {

/** Round-robin row-conflict traffic over every bank. */
class AttackTrafficGen
{
  public:
    AttackTrafficGen(const dram::AddressMapper& mapper, int carousel_rows)
        : mapper_(mapper), carousel_(carousel_rows)
    {
        const auto& org = mapper.organization();
        next_row_.assign(static_cast<std::size_t>(org.banksPerChannel()),
                         0);
    }

    /** Keep channel 0's read queue full. */
    void pump(ctrl::MemorySystem& mem, Cycle now)
    {
        const auto& org = mapper_.organization();
        const int banks = org.banksPerChannel();
        while (!mem.readQueueFull(0)) {
            int flat = bank_cursor_;
            bank_cursor_ = (bank_cursor_ + 1) % banks;
            int rank = flat / org.banksPerRank();
            int in_rank = flat % org.banksPerRank();
            int bg = in_rank / org.banks_per_group;
            int bank = in_rank % org.banks_per_group;
            auto& cursor = next_row_[static_cast<std::size_t>(flat)];
            // Rows spaced >2*BR apart so mitigations do not interact.
            int row = 8 + cursor * 8;
            cursor = (cursor + 1) % carousel_;
            Addr addr = mapper_.makeAddr(0, rank, bg, bank, row, 0);
            if (!mem.enqueueRead(addr, mapper_.decode(addr), 0, {}, now))
                break;
        }
    }

  private:
    const dram::AddressMapper& mapper_;
    int carousel_;
    int bank_cursor_ = 0;
    std::vector<int> next_row_;
};

} // namespace

PerfAttackResult
runPerfAttack(const PerfAttackConfig& cfg)
{
    dram::Organization org; // paper configuration (64 banks)
    dram::TimingParams timing = dram::TimingParams::ddr5Prac();
    dram::AddressMapper mapper(org);

    ctrl::MitigationFactory mitigation;
    if (cfg.mitigation_enabled) {
        core::QpracConfig qc =
            cfg.proactive ? core::QpracConfig::proactiveEvery(cfg.nbo,
                                                              cfg.nmit)
                          : core::QpracConfig::base(cfg.nbo, cfg.nmit);
        mitigation = [qc](dram::PracCounters* counters) {
            return std::make_unique<core::Qprac>(qc, counters);
        };
    }

    ctrl::ControllerConfig ctrl_cfg;
    ctrl_cfg.abo.enabled = cfg.mitigation_enabled;
    ctrl_cfg.abo.nmit = cfg.nmit;
    ctrl_cfg.abo.scope = cfg.scope;
    ctrl::MemorySystem mem(org, timing, ctrl_cfg, mitigation);

    AttackTrafficGen gen(mapper, cfg.carousel_rows);
    for (Cycle now = 0; now < cfg.sim_cycles;) {
        gen.pump(mem, now);
        now = mem.step(now, cfg.sim_cycles);
    }

    PerfAttackResult r;
    r.acts = mem.deviceStats().acts;
    r.alerts = mem.alerts();
    r.cycles = cfg.sim_cycles;
    r.skip = mem.skipStats();
    return r;
}

double
analyticBandwidthLossPct(int nbo, dram::RfmScope scope, bool proactive)
{
    const dram::TimingParams t = dram::TimingParams::ddr5Prac();
    const double trrd_ns = t.cyclesToNs(static_cast<Cycle>(t.tRRD_S));
    const double trc_ns = t.cyclesToNs(static_cast<Cycle>(t.tRC));
    const double trefi_ns = t.cyclesToNs(static_cast<Cycle>(t.tREFI));
    // All quantities here are channel-scoped: an RFM blocks banks of one
    // channel, so the per-channel bank count is the right denominator
    // (totalBanks() would multiply in channels and understate the loss).
    const dram::Organization org;
    const int total_banks = org.banksPerChannel();

    // Service cost per alert, scaled by the fraction of the channel the
    // RFM scope blocks (fixed term: alert handling / quiesce overlap).
    double rfm_ns;
    double blocked_frac;
    switch (scope) {
      case dram::RfmScope::AllBank:
        rfm_ns = t.cyclesToNs(static_cast<Cycle>(t.tRFMab));
        blocked_frac = 1.0;
        break;
      case dram::RfmScope::SameBank:
        rfm_ns = t.cyclesToNs(static_cast<Cycle>(t.tRFMsb));
        blocked_frac = static_cast<double>(org.bankgroups) / total_banks;
        break;
      case dram::RfmScope::PerBank:
      default:
        rfm_ns = t.cyclesToNs(static_cast<Cycle>(t.tRFMpb));
        blocked_frac = 1.0 / total_banks;
        break;
    }
    const double abo_fixed_ns = 60.0; // alert decode + quiesce overhead
    const double window_ns = 120.0;   // part of the 180ns ABO window lost
    double t_service = abo_fixed_ns + (window_ns + rfm_ns) * blocked_frac;

    // Useful ACT time the attacker must invest per alert.
    double crossing_ns = nbo * trrd_ns; // parallel stocking across banks
    if (proactive) {
        // A row must reach NBO within one tREFI of proactive coverage;
        // the fastest single-bank climb takes NBO * tRC.
        double climb_ns = nbo * trc_ns;
        if (climb_ns >= trefi_ns)
            return 0.0; // proactive resets every climb: attack defeated
        double survive = 1.0 - climb_ns / trefi_ns;
        // Failed climbs waste bandwidth; up to tRC/tRRD banks climb
        // concurrently at full channel utilization.
        double parallel = trc_ns / trrd_ns;
        crossing_ns = std::max(crossing_ns,
                               climb_ns / survive / parallel);
    }
    return 100.0 * t_service / (t_service + crossing_ns);
}

double
bandwidthLossPct(const PerfAttackConfig& cfg)
{
    PerfAttackConfig base = cfg;
    base.mitigation_enabled = false;
    PerfAttackResult protected_run = runPerfAttack(cfg);
    PerfAttackResult baseline = runPerfAttack(base);
    if (baseline.acts == 0)
        return 0.0;
    double ratio = static_cast<double>(protected_run.acts) /
                   static_cast<double>(baseline.acts);
    double loss = 100.0 * (1.0 - ratio);
    return loss < 0.0 ? 0.0 : loss;
}

} // namespace qprac::attacks
