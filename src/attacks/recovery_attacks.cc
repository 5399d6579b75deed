#include "attacks/recovery_attacks.h"

#include <algorithm>
#include <vector>

#include "common/log.h"
#include "obs/obs.h"

namespace qprac::attacks {

namespace {

/** One victim probe target: fixed (channel, rank, bg, bank), a row
 * pool the probes rotate through so their PRAC counts stay far below
 * any alert threshold. */
struct ProbeTarget
{
    int channel = 0;
    int rank = 0;
    int bankgroup = 0;
    int bank = 0;
    int row_base = 4096;
    int next_row = 0;
};

/** First cycle after @p now whose phase in @p period is @p offset. */
Cycle
nextPhase(Cycle now, Cycle period, Cycle offset)
{
    return now + 1 + (offset + period - (now + 1) % period) % period;
}

/** Common driver state for both recovery attacks. */
class RecoveryDriver
{
  public:
    explicit RecoveryDriver(const RecoveryAttackConfig& cfg)
        : cfg_(cfg),
          mapper_(cfg.org, cfg.mapping),
          mem_(cfg.org, cfg.timing, cfg.ctrl, cfg.mitigation, 2,
             cfg.counter_update)
    {
        QP_ASSERT(cfg.attack_banks >= 1 &&
                      cfg.attack_banks <= cfg.org.banksPerRank(),
                  "attack_banks out of range");
        attacker_.resize(static_cast<std::size_t>(cfg.attack_banks));
        if (cfg.recorder) {
            mem_.setEventRecorder(cfg.recorder);
            driver_sink_ = cfg.recorder->driverSink();
        }
    }

    ctrl::MemorySystem& memory() { return mem_; }

    /** Issue one latency probe; the completion lands in @p stats. */
    void probe(ProbeTarget& t, ProbeStats* stats, Cycle now)
    {
        const int row =
            t.row_base + 2 * (t.next_row % cfg_.victim_rows);
        ++t.next_row;
        dram::DecodedAddr dec = mapper_.decode(mapper_.makeAddr(
            t.channel, t.rank, t.bankgroup, t.bank, row, 0));
        // The probe pool is tiny versus the 64-entry read queue; a
        // full queue would itself be recovery-induced backpressure,
        // so a dropped probe is simply skipped, never retried.
        //
        // Probe events land on the recorder's driver lane, stamped at
        // issue with the measured latency — completions fire from
        // MemorySystem::step on this thread in delivery order, so the
        // lane stays single-writer.
        obs::EventSink* sink = driver_sink_;
        const int channel = t.channel;
        mem_.enqueueRead(mapper_.encode(dec), dec, /*source=*/1,
                         [stats, now, sink, channel](Cycle done) {
                             ++stats->probes;
                             stats->latency_sum += done - now;
                             if (sink)
                                 sink->record(
                                     obs::kAttack, now, "probe",
                                     "channel", channel, "latency",
                                     static_cast<std::int64_t>(done -
                                                               now));
                         },
                         now);
    }

    /**
     * Keep cfg_.attacker_depth row-conflict reads in flight on every
     * attacked bank of channel 0: each read is a fresh row of that
     * bank's carousel, so the bank activates at its tRC rate and its
     * tracker climbs to the alert threshold as fast as possible.
     */
    void attackerIssue(Cycle now)
    {
        const int groups = cfg_.org.bankgroups;
        for (int b = 0; b < cfg_.attack_banks; ++b) {
            AttackerBank& ab = attacker_[static_cast<std::size_t>(b)];
            while (ab.outstanding < cfg_.attacker_depth) {
                const int row = 64 + 4 * (ab.next_row %
                                          cfg_.carousel_rows);
                dram::DecodedAddr dec = mapper_.decode(mapper_.makeAddr(
                    /*channel=*/0, /*rank=*/0,
                    /*bankgroup=*/b % groups,
                    /*bank=*/(b / groups) % cfg_.org.banks_per_group,
                    row, 0));
                if (!mem_.enqueueRead(mapper_.encode(dec), dec,
                                      /*source=*/0,
                                      [&ab](Cycle) {
                                          --ab.outstanding;
                                      },
                                      now))
                    return; // channel 0's queue is full; retry once it frees
                ++ab.next_row;
                ++ab.outstanding;
                ++attacker_acts_;
            }
        }
    }

    std::uint64_t attackerActs() const { return attacker_acts_; }

    /** Let in-flight probes complete after the measured phases. */
    void drain(Cycle from)
    {
        const Cycle limit = from + 200'000;
        for (Cycle now = from; !mem_.drained() && now < limit;)
            now = mem_.step(now, limit);
    }

  private:
    struct AttackerBank
    {
        int outstanding = 0;
        int next_row = 0;
    };

    const RecoveryAttackConfig& cfg_;
    dram::AddressMapper mapper_;
    ctrl::MemorySystem mem_;
    std::vector<AttackerBank> attacker_;
    obs::EventSink* driver_sink_ = nullptr;
    std::uint64_t attacker_acts_ = 0;
};

} // namespace

RfmProbeResult
runRfmProbeAttack(const RecoveryAttackConfig& cfg)
{
    RecoveryDriver drv(cfg);
    RfmProbeResult r;

    // Victim placement. Near: co-located with the attacker on channel
    // 0 but outside every isolated recovery domain (other rank when
    // the geometry has one, else the far end of the bank groups). Far:
    // another channel when the geometry has one — the cross-channel
    // reference that recovery can never touch; with one channel it
    // degrades to a second co-located bank and the differential
    // signal collapses toward zero by construction.
    ProbeTarget near;
    near.channel = 0;
    near.rank = cfg.org.ranks > 1 ? 1 : 0;
    near.bankgroup = cfg.org.ranks > 1 ? 0 : cfg.org.bankgroups - 1;
    near.bank = cfg.org.banks_per_group - 1;
    ProbeTarget far = near;
    if (cfg.org.channels > 1) {
        far.channel = 1;
    } else {
        far.bankgroup = cfg.org.bankgroups > 1 ? cfg.org.bankgroups - 2
                                               : far.bankgroup;
        far.row_base += 8192;
    }

    const Cycle total = cfg.warmup_cycles + cfg.attack_cycles;
    const Cycle period = static_cast<Cycle>(cfg.probe_period);
    const Cycle half =
        static_cast<Cycle>(std::max(1, cfg.probe_period / 2));
    for (Cycle now = 0; now < total;) {
        const bool attacked = now >= cfg.warmup_cycles;
        if (now % period == 0)
            drv.probe(near, attacked ? &r.near_attack : &r.near_quiet,
                      now);
        if (now % period == half)
            drv.probe(far, attacked ? &r.far_attack : &r.far_quiet,
                      now);
        if (attacked)
            drv.attackerIssue(now);
        Cycle until = std::min({total, nextPhase(now, period, 0),
                                nextPhase(now, period, half)});
        if (!attacked)
            until = std::min(until, cfg.warmup_cycles);
        now = drv.memory().step(now, until);
    }
    drv.drain(total);

    r.alerts = drv.memory().alerts();
    r.rfms = drv.memory().ctrlStats().rfms;
    r.attacker_acts = drv.attackerActs();
    r.skip = drv.memory().skipStats();
    return r;
}

RecoveryDosResult
runRecoveryDosAttack(const RecoveryAttackConfig& cfg)
{
    RecoveryDriver drv(cfg);
    RecoveryDosResult r;

    // The victim streams at the last bank of the last rank: never part
    // of the attacker's bank set (which fills rank 0 bank-group-major)
    // and outside every isolated recovery domain.
    ProbeTarget victim;
    victim.channel = 0;
    victim.rank = cfg.org.ranks - 1;
    victim.bankgroup = cfg.org.bankgroups - 1;
    victim.bank = cfg.org.banks_per_group - 1;

    const Cycle total = cfg.warmup_cycles + cfg.attack_cycles;
    const Cycle period = static_cast<Cycle>(cfg.probe_period);
    for (Cycle now = 0; now < total;) {
        const bool attacked = now >= cfg.warmup_cycles;
        if (now % period == 0)
            drv.probe(victim,
                      attacked ? &r.victim_attack : &r.victim_quiet,
                      now);
        if (attacked)
            drv.attackerIssue(now);
        Cycle until = std::min(total, nextPhase(now, period, 0));
        if (!attacked)
            until = std::min(until, cfg.warmup_cycles);
        now = drv.memory().step(now, until);
    }
    drv.drain(total);

    r.alerts = drv.memory().alerts();
    r.rfms = drv.memory().ctrlStats().rfms;
    r.attacker_acts = drv.attackerActs();
    r.skip = drv.memory().skipStats();
    if (const ctrl::BankRecoveryEngine* engine =
            drv.memory().controller(0).abo().bankRecovery())
        r.peak_concurrent_recoveries = engine->peakConcurrent();
    return r;
}

} // namespace qprac::attacks
