/**
 * @file
 * Integration tests for the memory controller: request service,
 * refresh cadence, the ABO protocol flow, and policy RFMs.
 */
#include <gtest/gtest.h>

#include <functional>
#include <vector>

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

Organization
smallOrg()
{
    Organization org;
    org.ranks = 1;
    org.bankgroups = 2;
    org.banks_per_group = 2;
    org.rows_per_bank = 1024;
    return org;
}

struct Fixture
{
    Fixture(const ControllerConfig& cfg, QpracConfig* qc = nullptr)
        : org(smallOrg()),
          timing(TimingParams::ddr5Prac()),
          mapper(org),
          dev(org, timing)
    {
        if (qc)
            mit = std::make_unique<Qprac>(*qc, &dev.pracCounters());
        dev.setMitigation(mit.get());
        mc = std::make_unique<MemoryController>(dev, cfg);
    }

    /** Tick densely, firing each read's callback once the cycle its
     * data returns has been ticked. */
    void run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            mc->tick(now);
            auto& done = mc->completions();
            while (!done.empty() && done.front().at <= now) {
                const ctrl::ReadDone d = done.front();
                done.pop_front();
                callbacks[d.tag](d.at);
            }
            ++now;
        }
    }

    /** Enqueue a read; @p cb (if any) gets its data-return cycle. */
    bool
    enqueueRead(int bank_flat, int row, int col,
                std::function<void(Cycle)> cb = {})
    {
        int bg = bank_flat / org.banks_per_group;
        int bank = bank_flat % org.banks_per_group;
        Addr a = mapper.makeAddr(0, 0, bg, bank, row, col);
        std::uint32_t tag = ctrl::kNoCompletion;
        if (cb) {
            tag = static_cast<std::uint32_t>(callbacks.size());
            callbacks.push_back(std::move(cb));
        }
        return mc->enqueueRead(a, mapper.decode(a), 0, tag, now);
    }

    Organization org;
    TimingParams timing;
    AddressMapper mapper;
    DramDevice dev;
    std::unique_ptr<Qprac> mit;
    std::unique_ptr<MemoryController> mc;
    std::vector<std::function<void(Cycle)>> callbacks; ///< by read tag
    Cycle now = 0;
};

} // namespace

TEST(MemoryControllerTest, ServesReadsAndCompletes)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    std::vector<Cycle> done;
    ASSERT_TRUE(f.enqueueRead(0, 100, 0,
                              [&](Cycle at) { done.push_back(at); }));
    ASSERT_TRUE(f.enqueueRead(0, 100, 1,
                              [&](Cycle at) { done.push_back(at); }));
    f.run(2000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GT(done[0], 0u);
    EXPECT_GE(done[1], done[0]);
    EXPECT_TRUE(f.mc->drained());
    auto s = f.mc->stats();
    EXPECT_EQ(s.reads_done, 2u);
    EXPECT_EQ(s.row_misses, 1u); // one ACT, second read was a row hit
    EXPECT_EQ(s.row_hits, 2u);   // both CAS hit the open row
}

TEST(MemoryControllerTest, ReadLatencyIsPlausible)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    Cycle done_at = 0;
    f.enqueueRead(0, 5, 0, [&](Cycle at) { done_at = at; });
    f.run(1000);
    // ACT at ~1 + tRCD + tCL + tBL.
    Cycle expect_min = static_cast<Cycle>(f.timing.tRCD + f.timing.tCL +
                                          f.timing.tBL);
    EXPECT_GE(done_at, expect_min);
    EXPECT_LE(done_at, expect_min + 20);
}

TEST(MemoryControllerTest, WritesDrain)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    for (int i = 0; i < 8; ++i) {
        Addr a = f.mapper.makeAddr(0, 0, 0, 0, 10 + i, 0);
        ASSERT_TRUE(
            f.mc->enqueueWrite(a, f.mapper.decode(a), 0, f.now));
    }
    f.run(20000);
    EXPECT_TRUE(f.mc->drained());
    EXPECT_EQ(f.dev.stats().writes, 8u);
}

TEST(MemoryControllerTest, RefreshHappensEveryTrefi)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    Cycle horizon = static_cast<Cycle>(f.timing.tREFI) * 10;
    f.run(horizon);
    auto s = f.mc->stats();
    // One rank: ~10 REFs in 10 tREFI (allow slack for the tail).
    EXPECT_GE(s.refs, 9u);
    EXPECT_LE(s.refs, 11u);
}

TEST(MemoryControllerTest, RefreshDefersButServesTraffic)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    Fixture f(cfg);
    int completed = 0;
    // Keep a trickle of traffic flowing over several tREFI.
    for (int burst = 0; burst < 20; ++burst) {
        for (int i = 0; i < 4; ++i)
            f.enqueueRead(i, 100 + burst, 0,
                          [&](Cycle) { ++completed; });
        f.run(static_cast<Cycle>(f.timing.tREFI) / 2);
    }
    EXPECT_EQ(completed, 80);
    EXPECT_GE(f.mc->stats().refs, 8u);
}

TEST(MemoryControllerTest, AboFlowServicesAlert)
{
    ControllerConfig cfg;
    cfg.abo.enabled = true;
    cfg.abo.nmit = 1;
    QpracConfig qc = QpracConfig::base(4, 1); // alert after 4 ACTs
    Fixture f(cfg, &qc);
    int completed = 0;
    // Hammer two alternating rows in bank 0: every access is a row miss.
    for (int i = 0; i < 12; ++i) {
        f.enqueueRead(0, (i % 2) ? 100 : 300, 0,
                      [&](Cycle) { ++completed; });
        f.run(400);
    }
    f.run(5000);
    EXPECT_EQ(completed, 12);
    auto s = f.mc->stats();
    EXPECT_GE(s.alerts, 1u);
    EXPECT_GE(s.rfms, s.alerts); // nmit=1 RFM per alert
    EXPECT_GE(f.mit->stats().rfm_mitigations, s.alerts);
    // The hammered rows were mitigated: counters went back to zero.
    EXPECT_LT(f.dev.pracCounters().count(0, 100), 6u);
}

TEST(MemoryControllerTest, AboDisabledNeverAlerts)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    QpracConfig qc = QpracConfig::base(4, 1);
    Fixture f(cfg, &qc);
    for (int i = 0; i < 12; ++i) {
        f.enqueueRead(0, (i % 2) ? 100 : 300, 0);
        f.run(400);
    }
    EXPECT_EQ(f.mc->stats().alerts, 0u);
    EXPECT_EQ(f.mc->stats().rfms, 0u);
}

TEST(MemoryControllerTest, PolicyRfmPacesByActivationsAggregate)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    cfg.rfm_policy.acts_per_rfm = 4;
    cfg.rfm_policy.scope = RfmScope::AllBank;
    cfg.rfm_policy.per_bank = false; // channel-aggregate pacing
    Fixture f(cfg);
    int completed = 0;
    for (int i = 0; i < 16; ++i) {
        f.enqueueRead(i % 4, 100 + i, 0, [&](Cycle) { ++completed; });
        f.run(500);
    }
    f.run(5000);
    EXPECT_EQ(completed, 16);
    auto s = f.mc->stats();
    // 16 ACTs at one RFM per 4 ACTs -> ~4 policy RFMs.
    EXPECT_GE(s.policy_rfms, 3u);
    EXPECT_LE(s.policy_rfms, 5u);
}

TEST(MemoryControllerTest, PolicyRfmPerBankRaaCounters)
{
    ControllerConfig cfg;
    cfg.abo.enabled = false;
    cfg.rfm_policy.acts_per_rfm = 3;
    cfg.rfm_policy.scope = RfmScope::PerBank;
    cfg.rfm_policy.per_bank = true; // DDR5 RAA semantics
    Fixture f(cfg);
    int completed = 0;
    // 6 ACTs to bank 0 (two RFMs) and 2 to bank 1 (none).
    for (int i = 0; i < 6; ++i) {
        f.enqueueRead(0, 100 + i, 0, [&](Cycle) { ++completed; });
        f.run(600);
    }
    for (int i = 0; i < 2; ++i) {
        f.enqueueRead(1, 100 + i, 0, [&](Cycle) { ++completed; });
        f.run(600);
    }
    f.run(5000);
    EXPECT_EQ(completed, 8);
    auto s = f.mc->stats();
    EXPECT_EQ(s.policy_rfms, 2u);
    EXPECT_EQ(f.dev.stats().rfms, 2u);
}

TEST(MemoryControllerTest, Nmit4IssuesFourRfmsPerAlert)
{
    ControllerConfig cfg;
    cfg.abo.enabled = true;
    cfg.abo.nmit = 4;
    QpracConfig qc = QpracConfig::base(4, 4);
    Fixture f(cfg, &qc);
    for (int i = 0; i < 10; ++i) {
        f.enqueueRead(0, (i % 2) ? 100 : 300, 0);
        f.run(400);
    }
    f.run(8000);
    auto s = f.mc->stats();
    ASSERT_GE(s.alerts, 1u);
    EXPECT_EQ(s.rfms, 4 * s.alerts);
}
