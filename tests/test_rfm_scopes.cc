/**
 * @file
 * End-to-end tests of the RFM scope co-design (paper §VI-E): alerts
 * serviced with RFMab / RFMsb / RFMpb through the full controller path,
 * and the multi-bank alert sequencing of QPRAC-NoOp.
 */
#include <gtest/gtest.h>

#include "core/qprac.h"
#include "ctrl/memory_controller.h"

using namespace qprac;
using core::Qprac;
using core::QpracConfig;
using ctrl::ControllerConfig;
using ctrl::MemoryController;
using dram::AddressMapper;
using dram::DramDevice;
using dram::Organization;
using dram::RfmScope;
using dram::TimingParams;

namespace {

struct Rig
{
    explicit Rig(RfmScope scope, QpracConfig qc)
        : org(makeOrg()),
          timing(TimingParams::ddr5Prac()),
          mapper(org),
          dev(org, timing),
          mit(qc, &dev.pracCounters())
    {
        dev.setMitigation(&mit);
        ControllerConfig cfg;
        cfg.abo.enabled = true;
        cfg.abo.nmit = qc.nmit;
        cfg.abo.scope = scope;
        mc = std::make_unique<MemoryController>(dev, cfg);
    }

    static Organization
    makeOrg()
    {
        Organization o;
        o.ranks = 2;
        o.bankgroups = 2;
        o.banks_per_group = 2;
        o.rows_per_bank = 1024;
        return o;
    }

    /** Hammer two alternating rows in one bank via real reads. */
    void
    hammer(int rank, int bg, int bank, int times)
    {
        for (int i = 0; i < times; ++i) {
            Addr a = mapper.makeAddr(0, rank, bg, bank,
                                     (i % 2) ? 100 : 300, 0);
            while (!mc->enqueueRead(a, mapper.decode(a), 0,
                                    ctrl::kNoCompletion, now))
                step(50);
            step(300);
        }
    }

    void
    step(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            mc->tick(now++);
    }

    Organization org;
    TimingParams timing;
    AddressMapper mapper;
    DramDevice dev;
    Qprac mit;
    std::unique_ptr<MemoryController> mc;
    Cycle now = 0;
};

} // namespace

TEST(RfmScopes, AllBankMitigatesEveryBankOpportunistically)
{
    Rig rig(RfmScope::AllBank, QpracConfig::base(4, 1));
    // Warm a below-threshold row in another bank (rank 1).
    rig.hammer(1, 1, 1, 2);
    // Drive bank (0,0,0) to the alert threshold.
    rig.hammer(0, 0, 0, 10);
    rig.step(8000);
    ASSERT_GE(rig.mc->stats().alerts, 1u);
    // Opportunistic: the other bank's top row was mitigated too.
    EXPECT_EQ(rig.dev.pracCounters().count(4 + 2 + 1, 100), 0u);
    EXPECT_GE(rig.mit.stats().rfm_mitigations, 2u);
}

TEST(RfmScopes, PerBankLeavesOtherBanksUntouched)
{
    Rig rig(RfmScope::PerBank, QpracConfig::base(4, 1));
    rig.hammer(1, 1, 1, 2); // flat bank 7, counts 1 per row
    rig.hammer(0, 0, 0, 10); // alerting bank
    rig.step(8000);
    ASSERT_GE(rig.mc->stats().alerts, 1u);
    // Bank 7's rows keep their counts: RFMpb covered only the alerter.
    ActCount other = rig.dev.pracCounters().count(7, 100) +
                     rig.dev.pracCounters().count(7, 300);
    EXPECT_GE(other, 2u);
    // And the alerting bank's hot row was mitigated.
    EXPECT_LT(rig.dev.pracCounters().count(0, 100) +
                  rig.dev.pracCounters().count(0, 300),
              6u);
}

TEST(RfmScopes, SameBankCoversBankIndexAcrossGroups)
{
    Rig rig(RfmScope::SameBank, QpracConfig::base(4, 1));
    // Same bank index (0) in the other bank group of rank 0.
    rig.hammer(0, 1, 0, 3); // flat bank 2
    rig.hammer(0, 0, 0, 10); // flat bank 0 alerts
    rig.step(8000);
    ASSERT_GE(rig.mc->stats().alerts, 1u);
    // Bank 2 shares the bank index within the rank: mitigated.
    EXPECT_LT(rig.dev.pracCounters().count(2, 100) +
                  rig.dev.pracCounters().count(2, 300),
              3u);
}

TEST(RfmScopes, NoOpServicesBanksWithSeparateAlerts)
{
    // Two banks cross NBO; NoOp mitigates only the alerting bank per
    // alert, so the second bank needs its own ABO episode (paper's
    // explanation for NoOp's 12.4% overhead).
    Rig rig(RfmScope::AllBank, QpracConfig::noOp(4, 1));
    rig.hammer(0, 0, 0, 10);
    rig.hammer(0, 1, 1, 10);
    rig.step(30000);
    EXPECT_GE(rig.mc->stats().alerts, 2u);
    EXPECT_GE(rig.mit.stats().rfm_mitigations, 2u);
    // The defense bound: no row may run past NBO + ABO_ACT + ABODelay.
    for (int bank : {0, 3})
        for (int row : {100, 300})
            EXPECT_LE(rig.dev.pracCounters().count(bank, row), 8u)
                << "bank " << bank << " row " << row;
}

TEST(RfmScopes, Prac4IssuesFourRfmsAndMitigatesUpToFourRows)
{
    Rig rig(RfmScope::AllBank, QpracConfig::base(4, 4));
    // Several hot rows in the alerting bank, spaced beyond blast radius.
    for (int r = 0; r < 4; ++r)
        for (int i = 0; i < 3 + r; ++i) {
            Addr a = rig.mapper.makeAddr(0, 0, 0, 0, 100 + 8 * r, i);
            while (!rig.mc->enqueueRead(a, rig.mapper.decode(a), 0,
                                        ctrl::kNoCompletion, rig.now))
                rig.step(50);
            rig.step(250);
            Addr b = rig.mapper.makeAddr(0, 0, 0, 0, 500, 0);
            while (!rig.mc->enqueueRead(b, rig.mapper.decode(b), 0,
                                        ctrl::kNoCompletion, rig.now))
                rig.step(50);
            rig.step(250);
        }
    rig.step(12000);
    auto s = rig.mc->stats();
    ASSERT_GE(s.alerts, 1u);
    EXPECT_EQ(s.rfms, 4 * s.alerts);
    EXPECT_GE(rig.mit.stats().rfm_mitigations, 4u);
}
