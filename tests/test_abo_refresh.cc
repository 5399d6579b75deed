/**
 * @file
 * Focused unit tests for the controller-side ABO engine and the refresh
 * scheduler (complementing the end-to-end controller tests).
 */
#include <gtest/gtest.h>

#include "core/qprac.h"
#include "ctrl/abo.h"
#include "ctrl/refresh.h"
#include "dram/dram_device.h"

using namespace qprac;
using core::Qprac;
using core::QpracConfig;
using ctrl::AboConfig;
using ctrl::AboEngine;
using ctrl::RefreshScheduler;
using dram::DramDevice;
using dram::Organization;
using dram::RfmScope;
using dram::TimingParams;

namespace {

Organization
org()
{
    Organization o;
    o.ranks = 1;
    o.bankgroups = 2;
    o.banks_per_group = 2;
    o.rows_per_bank = 512;
    return o;
}

} // namespace

TEST(AboEngineTest, IdleByDefault)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    AboEngine abo(AboConfig{}, t, dev.numBanks());
    abo.tick(dev, 0);
    EXPECT_TRUE(abo.idle());
    EXPECT_TRUE(abo.allowAct());
    EXPECT_TRUE(abo.allowCas());
    EXPECT_EQ(abo.alerts(), 0u);
}

TEST(AboEngineTest, AlertWalksThroughWindowQuiescePump)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    Qprac q(QpracConfig::base(2, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    AboEngine abo(AboConfig{}, t, dev.numBanks());

    // Drive a row to NBO=2 so the device asserts ALERT_n.
    dev.issueAct(0, 100, 0);
    dev.issuePre(0, static_cast<Cycle>(t.tRAS));
    dev.issueAct(0, 100, static_cast<Cycle>(t.tRC));
    dev.issuePre(0, static_cast<Cycle>(t.tRC + t.tRAS));
    ASSERT_TRUE(dev.alertAsserted());

    Cycle c = static_cast<Cycle>(t.tRC + t.tRAS + t.tRP);
    abo.tick(dev, c); // Idle -> Window
    EXPECT_FALSE(abo.idle());
    EXPECT_TRUE(abo.allowAct()); // budget of 3 ACTs remains
    abo.noteActIssued();
    abo.noteActIssued();
    abo.noteActIssued();
    EXPECT_FALSE(abo.allowAct()); // budget exhausted
    abo.tick(dev, c + 1);         // Window -> Quiesce
    EXPECT_TRUE(abo.quiescing());
    EXPECT_EQ(abo.quiesceSince(), c + 1);
    // CAS may drain during quiesce (pending row hits complete before
    // their rows are precharged); new ACTs may not.
    EXPECT_TRUE(abo.allowCas());
    EXPECT_FALSE(abo.allowAct());
    // Banks are already precharged; next tick pumps the RFM.
    abo.tick(dev, c + 2); // Quiesce -> Pumping
    abo.tick(dev, c + 3); // issues the RFM
    EXPECT_EQ(abo.rfmsIssued(), 1u);
    EXPECT_EQ(dev.stats().rfms, 1u);
    // Aggressor mitigated; after the pump drains, the engine goes idle.
    EXPECT_EQ(dev.pracCounters().count(0, 100), 0u);
    Cycle done = c + 3 + static_cast<Cycle>(t.tRFMab);
    abo.tick(dev, done);
    abo.tick(dev, done + 1);
    EXPECT_TRUE(abo.idle());
    EXPECT_EQ(abo.alerts(), 1u);
}

TEST(AboEngineTest, WindowExpiryForcesQuiesce)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    Qprac q(QpracConfig::base(1, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    AboEngine abo(AboConfig{}, t, dev.numBanks());
    dev.issueAct(0, 9, 0);
    dev.issuePre(0, static_cast<Cycle>(t.tRAS));
    ASSERT_TRUE(dev.alertAsserted());
    abo.tick(dev, 100); // -> Window, no ACTs issued
    EXPECT_TRUE(abo.allowAct());
    abo.tick(dev, 100 + static_cast<Cycle>(t.tABO_window)); // expiry
    EXPECT_TRUE(abo.quiescing());
}

TEST(AboEngineTest, PolicyRfmPumpsWithoutAlert)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    AboEngine abo(AboConfig{}, t, dev.numBanks());
    abo.requestPolicyRfm(RfmScope::AllBank);
    EXPECT_FALSE(abo.idle());
    abo.tick(dev, 0); // Idle -> Quiesce (policy)
    abo.tick(dev, 1); // Quiesce -> Pumping
    abo.tick(dev, 2); // issue
    EXPECT_EQ(abo.policyRfms(), 1u);
    EXPECT_EQ(abo.alerts(), 0u);
    abo.tick(dev, 2 + static_cast<Cycle>(t.tRFMab));
    abo.tick(dev, 3 + static_cast<Cycle>(t.tRFMab));
    EXPECT_TRUE(abo.idle());
}

TEST(AboEngineTest, DisabledEngineIgnoresAlerts)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    Qprac q(QpracConfig::base(1, 1), &dev.pracCounters());
    dev.setMitigation(&q);
    AboConfig cfg;
    cfg.enabled = false;
    AboEngine abo(cfg, t, dev.numBanks());
    dev.issueAct(0, 9, 0);
    ASSERT_TRUE(dev.alertAsserted());
    abo.tick(dev, 10);
    EXPECT_TRUE(abo.idle());
    EXPECT_EQ(abo.alerts(), 0u);
}

TEST(RefreshSchedulerTest, IssuesPerRankEveryTrefi)
{
    TimingParams t = TimingParams::ddr5Prac();
    Organization o = org();
    o.ranks = 2;
    DramDevice dev(o, t);
    RefreshScheduler ref(t, 2);
    for (Cycle c = 0; c < static_cast<Cycle>(t.tREFI) * 4; ++c)
        ref.tick(dev, c);
    // Two ranks, ~4 tREFI: ~8 REFs (boundary slack of 2).
    EXPECT_GE(ref.refsIssued(), 6u);
    EXPECT_LE(ref.refsIssued(), 9u);
    EXPECT_EQ(dev.stats().refs, ref.refsIssued());
}

TEST(RefreshSchedulerTest, PendingBlocksUntilRankIdle)
{
    TimingParams t = TimingParams::ddr5Prac();
    DramDevice dev(org(), t);
    RefreshScheduler ref(t, 1);
    // Open a bank right before the REF becomes due.
    Cycle due = static_cast<Cycle>(t.tREFI);
    dev.issueAct(0, 5, due - 10);
    ref.tick(dev, due);
    EXPECT_TRUE(ref.refPending(0));
    EXPECT_EQ(ref.refsIssued(), 0u); // bank open: REF must wait
    // Precharge; REF can go once the bank is idle.
    Cycle pre_at = due - 10 + static_cast<Cycle>(t.tRAS);
    dev.issuePre(0, pre_at);
    Cycle idle_at = pre_at + static_cast<Cycle>(t.tRP);
    ref.tick(dev, idle_at);
    EXPECT_EQ(ref.refsIssued(), 1u);
    EXPECT_FALSE(ref.refPending(0));
}

TEST(RefreshSchedulerTest, StaggersRanks)
{
    TimingParams t = TimingParams::ddr5Prac();
    Organization o = org();
    o.ranks = 2;
    DramDevice dev(o, t);
    RefreshScheduler ref(t, 2);
    // Rank 0's first REF is due at tREFI/2, rank 1's at tREFI.
    Cycle half = static_cast<Cycle>(t.tREFI) / 2;
    ref.tick(dev, half);
    EXPECT_EQ(ref.refsIssued(), 1u);
    ref.tick(dev, static_cast<Cycle>(t.tREFI));
    EXPECT_EQ(ref.refsIssued(), 2u);
}
