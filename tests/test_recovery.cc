/**
 * @file
 * Unit and integration tests for the recovery subsystem
 * (ctrl/recovery): kind parsing and coverage semantics, the per-bank
 * BankRecoveryEngine protocol (window budget, quiesce, per-bank RFMs,
 * per-bank ABODelay, alert-storm overlap), and the end-to-end
 * properties the recovery attack scenarios are built on (leakage and
 * DoS orderings across recovery kinds).
 */
#include <gtest/gtest.h>

#include "core/qprac.h"
#include "ctrl/abo.h"
#include "ctrl/recovery/recovery_policy.h"
#include "dram/dram_device.h"
#include "sim/scenario.h"

using namespace qprac;
using core::Qprac;
using core::QpracConfig;
using ctrl::AboConfig;
using ctrl::AboEngine;
using ctrl::RecoveryKind;
using dram::DramDevice;
using dram::Organization;
using dram::TimingParams;

namespace {

Organization
org()
{
    Organization o;
    o.ranks = 2;
    o.bankgroups = 2;
    o.banks_per_group = 2;
    o.rows_per_bank = 512;
    return o;
}

/** Drive @p bank's @p row to @p count ACTs (precharging in between). */
void
hammer(DramDevice& dev, int bank, int row, int count, Cycle* now)
{
    const TimingParams& t = dev.timing();
    for (int i = 0; i < count; ++i) {
        dev.issueAct(bank, row, *now);
        dev.issuePre(bank, *now + static_cast<Cycle>(t.tRAS));
        *now += static_cast<Cycle>(t.tRC);
    }
}

} // namespace

// --- Recovery kinds ----------------------------------------------------

TEST(RecoveryPolicyTest, KindNamesRoundTrip)
{
    ASSERT_EQ(ctrl::recoveryKinds().size(), 2u);
    for (RecoveryKind kind : ctrl::recoveryKinds()) {
        RecoveryKind parsed;
        ASSERT_TRUE(
            ctrl::parseRecoveryKind(ctrl::recoveryKindName(kind),
                                    &parsed));
        EXPECT_EQ(parsed, kind);
    }
    RecoveryKind kind;
    EXPECT_FALSE(ctrl::parseRecoveryKind("channel", &kind));
    EXPECT_FALSE(ctrl::parseRecoveryKind("", &kind));
    // The retired bank-group middle point is a different design, not
    // an alias of bank-isolated.
    EXPECT_FALSE(ctrl::parseRecoveryKind("group-isolated", &kind));
}

TEST(RecoveryPolicyTest, CoverageSemantics)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t); // 2 ranks x 2 groups x 2 banks = 8 banks
    Qprac q(QpracConfig::base(2, 1), &dev.pracCounters());
    dev.setMitigation(&q);

    AboConfig cfg;
    AboEngine stall(cfg, t, dev.numBanks());
    EXPECT_TRUE(stall.channelScope());
    EXPECT_EQ(stall.bankRecovery(), nullptr);
    cfg.recovery = RecoveryKind::BankIsolated;
    AboEngine abo(cfg, t, dev.numBanks());
    EXPECT_FALSE(abo.channelScope());

    // Alert on bank 0 (rank 0, group 0, index 0), window budget spent:
    // bank 0 alone blocks — not its bank group, not the same
    // coordinates one rank over.
    Cycle now = 0;
    hammer(dev, 0, 100, 2, &now);
    abo.tick(dev, now);
    for (int i = 0; i < t.abo_act_max; ++i)
        abo.noteActIssued(0);
    for (int b = 0; b < dev.numBanks(); ++b)
        EXPECT_EQ(abo.allowAct(b), b != 0) << b;

    // The pump issues a per-bank RFM regardless of the configured
    // channel-stall scope (AllBank): bank 1 is never blocked by it.
    abo.tick(dev, now + 1); // quiesce
    abo.tick(dev, now + 2); // pumping
    abo.tick(dev, now + 3); // RFM
    EXPECT_EQ(dev.stats().rfms, 1u);
    for (int b = 1; b < dev.numBanks(); ++b) {
        EXPECT_TRUE(dev.bank(b).idleAt(now + 3)) << b;
        EXPECT_TRUE(abo.allowCas(b)) << b;
    }
    EXPECT_FALSE(abo.allowCas(0));
}

// --- Per-bank engine behind AboEngine ----------------------------------

TEST(BankRecoveryTest, IsolatedRecoveryBlocksOnlyCoveredBanks)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    Qprac q(QpracConfig::base(2, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    AboConfig cfg;
    cfg.recovery = RecoveryKind::BankIsolated;
    AboEngine abo(cfg, t, dev.numBanks());
    ASSERT_NE(abo.bankRecovery(), nullptr); // built up front

    Cycle now = 0;
    hammer(dev, 0, 100, 2, &now); // NBO=2: bank 0 wants the alert
    ASSERT_TRUE(dev.bankAlertAsserted(0));
    EXPECT_FALSE(dev.bankAlertAsserted(1));

    abo.tick(dev, now); // bank 0 enters its window
    EXPECT_FALSE(abo.idle());
    EXPECT_EQ(abo.alerts(), 1u);
    // The channel gate stays open; only bank 0 is budget-limited.
    EXPECT_TRUE(abo.allowAct());
    EXPECT_TRUE(abo.allowAct(1));
    EXPECT_TRUE(abo.allowAct(0)); // window budget remains
    abo.noteActIssued(0);
    abo.noteActIssued(0);
    abo.noteActIssued(0); // abo_act_max = 3
    EXPECT_FALSE(abo.allowAct(0));
    EXPECT_TRUE(abo.allowAct(1));

    abo.tick(dev, now + 1); // window budget spent -> quiesce
    EXPECT_NE(abo.quiesceSince(0), kNeverCycle);
    EXPECT_EQ(abo.quiesceSince(1), kNeverCycle);
    EXPECT_TRUE(abo.allowCas(0)); // CAS drains during quiesce
    abo.tick(dev, now + 2); // bank idle -> pumping
    abo.tick(dev, now + 3); // issues the per-bank RFM
    EXPECT_EQ(dev.stats().rfms, 1u);
    EXPECT_FALSE(abo.allowCas(0)); // pumping blocks covered CAS
    EXPECT_TRUE(abo.allowCas(1));
    // Only bank 0 was blocked by the RFM: bank 1 is still idle and
    // schedulable right now.
    EXPECT_TRUE(dev.bank(1).idleAt(now + 3));
    EXPECT_TRUE(abo.allowAct(1));

    // Aggressor mitigated; the engine returns to idle after the pump.
    EXPECT_EQ(dev.pracCounters().count(0, 100), 0u);
    Cycle done = now + 3 + static_cast<Cycle>(t.tRFMpb);
    abo.tick(dev, done);
    abo.tick(dev, done + 1);
    EXPECT_TRUE(abo.idle());
    EXPECT_EQ(abo.rfmsIssued(), 1u);
}

TEST(BankRecoveryTest, AlertStormOverlapsRecoveries)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    Qprac q(QpracConfig::base(2, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    AboConfig cfg;
    cfg.recovery = RecoveryKind::BankIsolated;
    AboEngine abo(cfg, t, dev.numBanks());

    Cycle now = 0;
    hammer(dev, 2, 100, 2, &now); // bank 2 (group 1)
    hammer(dev, 5, 200, 2, &now); // bank 5 (rank 1)
    ASSERT_TRUE(dev.bankAlertAsserted(2));
    ASSERT_TRUE(dev.bankAlertAsserted(5));

    abo.tick(dev, now); // both banks enter recovery concurrently
    EXPECT_EQ(abo.alerts(), 2u);
    EXPECT_EQ(abo.bankRecovery()->peakConcurrent(), 2);

    // Let both windows expire, quiesce and pump: one RFM per cycle.
    Cycle c = now + static_cast<Cycle>(t.tABO_window);
    for (int i = 0; i < 6; ++i)
        abo.tick(dev, c + static_cast<Cycle>(i));
    EXPECT_EQ(dev.stats().rfms, 2u);
    Cycle done = c + 6 + static_cast<Cycle>(t.tRFMpb);
    abo.tick(dev, done);
    abo.tick(dev, done + 1);
    EXPECT_TRUE(abo.idle());
    EXPECT_EQ(abo.rfmsIssued(), 2u);
}

TEST(BankRecoveryTest, PerBankAboDelayGatesEachBankIndependently)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    Qprac q(QpracConfig::base(1, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    dev.setAboDelay(3);

    Cycle now = 0;
    // NBO=1: the first ACT on bank 0 raises its alert; service it.
    hammer(dev, 0, 100, 1, &now);
    ASSERT_TRUE(dev.bankAlertAsserted(0));
    dev.bankAlertServiced(0, now);

    // Bank 0's next alert is gated until *it* serves 3 further ACTs.
    hammer(dev, 0, 104, 1, &now);
    EXPECT_FALSE(dev.bankAlertAsserted(0));
    // Bank 1's gate is untouched: its first alert rises immediately,
    // no matter how many ACTs bank 0 has absorbed.
    hammer(dev, 1, 100, 1, &now);
    EXPECT_TRUE(dev.bankAlertAsserted(1));
    hammer(dev, 0, 108, 2, &now);
    EXPECT_TRUE(dev.bankAlertAsserted(0)); // 3 ACTs since service
}

// --- Scenario key and end-to-end attack orderings ----------------------

TEST(RecoveryScenarioTest, RecoveryKeyValidatesAndRoundTrips)
{
    sim::ScenarioConfig cfg;
    std::string err;
    EXPECT_EQ(cfg.get("recovery"), "channel-stall");
    ASSERT_TRUE(cfg.set("recovery", "bank-isolated", &err)) << err;
    EXPECT_EQ(cfg.recovery, "bank-isolated");
    EXPECT_EQ(cfg.design().abo.recovery, RecoveryKind::BankIsolated);
    EXPECT_FALSE(cfg.set("recovery", "bank", &err));
    EXPECT_FALSE(cfg.set("recovery", "", &err));
    // Attack knob keys validate too.
    ASSERT_TRUE(cfg.set("r1", "500", &err)) << err;
    EXPECT_EQ(cfg.r1, 500);
    EXPECT_FALSE(cfg.set("r1", "0", &err));
    ASSERT_TRUE(cfg.set("attack_cycles", "90000", &err)) << err;
    EXPECT_EQ(cfg.attack_cycles, 90'000u);
    ASSERT_TRUE(cfg.set("attack_cycles", "default", &err)) << err;
    EXPECT_EQ(cfg.get("attack_cycles"), "default");
    EXPECT_FALSE(cfg.set("attack_cycles", "0", &err));
}

TEST(RecoveryScenarioTest, MultiChannelValidationPerFamily)
{
    sim::ScenarioConfig cfg;
    std::string err;
    // The recovery attacks model channels; the event-level families
    // stay single-channel.
    ASSERT_TRUE(cfg.set("source", "attack:rfm-probe", &err)) << err;
    cfg.channels = 2;
    EXPECT_TRUE(cfg.validate(&err)) << err;
    ASSERT_TRUE(cfg.set("source", "attack:wave", &err)) << err;
    EXPECT_FALSE(cfg.validate(&err));
    cfg.channels = 1;
    EXPECT_TRUE(cfg.validate(&err)) << err;
}

namespace {

/** Run one recovery attack scenario with a small cycle budget. */
StatSet
runRecoveryAttack(const std::string& source,
                  const std::string& recovery)
{
    sim::ScenarioConfig cfg;
    std::string err;
    EXPECT_TRUE(cfg.set("source", source, &err)) << err;
    EXPECT_TRUE(cfg.set("channels", "2", &err)) << err;
    EXPECT_TRUE(cfg.set("recovery", recovery, &err)) << err;
    EXPECT_TRUE(cfg.set("nbo", "8", &err)) << err;
    EXPECT_TRUE(cfg.set("attack_cycles", "80000", &err)) << err;
    return sim::runScenario(cfg).stats;
}

} // namespace

TEST(RecoveryScenarioTest, RfmProbeLeaksMoreUnderChannelStall)
{
    StatSet stall = runRecoveryAttack("attack:rfm-probe",
                                      "channel-stall");
    StatSet isolated = runRecoveryAttack("attack:rfm-probe",
                                         "bank-isolated");
    // Alerts fire under both policies; the co-located victim only
    // sees them when recovery stalls the channel.
    EXPECT_GT(stall.get("attack.alerts"), 0.0);
    EXPECT_GT(isolated.get("attack.alerts"), 0.0);
    EXPECT_GT(stall.get("attack.leakage_signal"),
              2.0 * isolated.get("attack.leakage_signal"));
    EXPECT_GT(stall.get("attack.near_excess"), 50.0);
    // The cross-channel reference bank never sees the recovery.
    EXPECT_LT(std::abs(stall.get("attack.far_excess")), 25.0);
}

TEST(RecoveryScenarioTest, RecoveryDosIsBluntedByIsolation)
{
    StatSet stall = runRecoveryAttack("attack:recovery-dos",
                                      "channel-stall");
    StatSet isolated = runRecoveryAttack("attack:recovery-dos",
                                         "bank-isolated");
    EXPECT_GT(stall.get("attack.victim_slowdown"), 1.5);
    EXPECT_LT(isolated.get("attack.victim_slowdown"), 1.5);
    EXPECT_EQ(stall.get("attack.peak_concurrent_recoveries"), 0.0);
    EXPECT_GE(isolated.get("attack.peak_concurrent_recoveries"), 2.0);
}
