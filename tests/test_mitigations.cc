/**
 * @file
 * Unit tests for the baseline mitigations: Panopticon, UPRAC-FIFO,
 * MOAT, PrIDE, Mithril, the RFM policies, and the factory.
 */
#include <gtest/gtest.h>

#include "dram/prac_counters.h"
#include "mitigations/factory.h"
#include "mitigations/mithril.h"
#include "mitigations/moat.h"
#include "mitigations/panopticon.h"
#include "mitigations/pride.h"
#include "mitigations/rfm_policy.h"
#include "mitigations/uprac.h"

using namespace qprac;
using namespace qprac::mitigations;
using dram::PracCounters;
using dram::RfmScope;

namespace {

ActCount
act(PracCounters& c, dram::RowhammerMitigation& m, int bank, int row)
{
    ActCount n = c.onActivate(bank, row);
    m.onActivate(bank, row, n, 0);
    return n;
}

} // namespace

// ---- Panopticon ------------------------------------------------------

TEST(PanopticonTest, TbitTogglesEnqueue)
{
    PracCounters c(1, 256);
    Panopticon p(PanopticonConfig::tbit(3, 4), &c); // M = 8
    for (int i = 0; i < 7; ++i)
        act(c, p, 0, 40);
    EXPECT_FALSE(p.queueContains(0, 40));
    act(c, p, 0, 40); // count 8: toggle
    EXPECT_TRUE(p.queueContains(0, 40));
}

TEST(PanopticonTest, FullQueueDropsMitigationEvents)
{
    PracCounters c(1, 256);
    Panopticon p(PanopticonConfig::tbit(3, 2), &c); // Q=2, M=8
    for (int r = 0; r < 3; ++r)
        for (int i = 0; i < 8; ++i)
            act(c, p, 0, r * 8);
    EXPECT_TRUE(p.queueFull(0));
    EXPECT_TRUE(p.wantsAlert());
    // Third row's toggle was silently dropped: the vulnerability.
    EXPECT_FALSE(p.queueContains(0, 16));
    EXPECT_EQ(p.stats().dropped_mitigations, 1u);
}

TEST(PanopticonTest, TbitBypassedRowWaits2TActivations)
{
    PracCounters c(1, 256);
    Panopticon p(PanopticonConfig::tbit(3, 1), &c); // Q=1, M=8
    for (int i = 0; i < 8; ++i)
        act(c, p, 0, 0); // fills the queue
    for (int i = 0; i < 8; ++i)
        act(c, p, 0, 16); // toggle dropped (full)
    EXPECT_FALSE(p.queueContains(0, 16));
    p.onRfm(0, RfmScope::AllBank, true, 0); // drain
    // 7 more ACTs (count 15): still no toggle until 16 = 2*M.
    for (int i = 0; i < 7; ++i)
        act(c, p, 0, 16);
    EXPECT_FALSE(p.queueContains(0, 16));
    act(c, p, 0, 16); // count 16 toggles again
    EXPECT_TRUE(p.queueContains(0, 16));
}

TEST(PanopticonTest, FullCounterModeRetriesEveryAct)
{
    PracCounters c(1, 256);
    Panopticon p(PanopticonConfig::fullCounter(8, 1), &c);
    for (int i = 0; i < 8; ++i)
        act(c, p, 0, 0); // fills Q=1
    for (int i = 0; i < 9; ++i)
        act(c, p, 0, 16); // dropped while full
    EXPECT_FALSE(p.queueContains(0, 16));
    p.onRfm(0, RfmScope::AllBank, true, 0);
    act(c, p, 0, 16); // retried on the next ACT (count already > M)
    EXPECT_TRUE(p.queueContains(0, 16));
}

TEST(PanopticonTest, MitigationInTbitModeKeepsCounter)
{
    PracCounters c(1, 256);
    Panopticon p(PanopticonConfig::tbit(3, 4), &c);
    for (int i = 0; i < 8; ++i)
        act(c, p, 0, 40);
    p.onRfm(0, RfmScope::AllBank, true, 0);
    EXPECT_EQ(c.count(0, 40), 8u); // not reset (t-bit semantics)
    EXPECT_FALSE(p.queueContains(0, 40));
}

TEST(PanopticonTest, BlockedAboToggleSuppressesEnqueue)
{
    PracCounters c(1, 256);
    PanopticonConfig cfg = PanopticonConfig::tbit(3, 4);
    cfg.block_abo_toggle = true;
    Panopticon p(cfg, &c);
    for (int i = 0; i < 7; ++i)
        act(c, p, 0, 40);
    p.setAboWindowActive(true);
    act(c, p, 0, 40); // toggle during ABO: suppressed
    EXPECT_FALSE(p.queueContains(0, 40));
    p.setAboWindowActive(false);
}

TEST(PanopticonTest, RefreshMitigatesFront)
{
    PracCounters c(1, 256);
    Panopticon p(PanopticonConfig::fullCounter(4, 4), &c);
    for (int i = 0; i < 4; ++i)
        act(c, p, 0, 40);
    ASSERT_TRUE(p.queueContains(0, 40));
    p.onRefresh(0, 0);
    EXPECT_FALSE(p.queueContains(0, 40));
    EXPECT_EQ(p.stats().proactive_mitigations, 1u);
    EXPECT_EQ(c.count(0, 40), 0u); // full-counter mode resets
}

// ---- UPRAC -----------------------------------------------------------

TEST(UpracTest, FifoInheritsFillEscapeWeakness)
{
    PracCounters c(1, 256);
    UpracFifo u(2, 8, &c);
    // Fill the 2-entry FIFO with two hot rows.
    for (int r = 0; r < 2; ++r)
        for (int i = 0; i < 8; ++i)
            act(c, u, 0, r * 8);
    ASSERT_TRUE(u.queueFull(0));
    // Target crosses the threshold while full: bypassed.
    for (int i = 0; i < 10; ++i)
        act(c, u, 0, 32);
    EXPECT_FALSE(u.queueContains(0, 32));
    EXPECT_GT(u.stats().dropped_mitigations, 0u);
}

// ---- MOAT ------------------------------------------------------------

TEST(MoatTest, TracksHighestRowAboveEth)
{
    PracCounters c(1, 256);
    Moat m(MoatConfig::forNbo(8), &c); // ETH 4, ATH 8
    for (int i = 0; i < 3; ++i)
        act(c, m, 0, 10);
    EXPECT_EQ(m.trackedRow(0), qprac::kNoRow); // below ETH
    act(c, m, 0, 10);
    EXPECT_EQ(m.trackedRow(0), 10); // reached ETH
    for (int i = 0; i < 6; ++i)
        act(c, m, 0, 20);
    EXPECT_EQ(m.trackedRow(0), 20); // higher count replaces
}

TEST(MoatTest, AlertAtAthAndMitigationClears)
{
    PracCounters c(1, 256);
    Moat m(MoatConfig::forNbo(8), &c);
    for (int i = 0; i < 8; ++i)
        act(c, m, 0, 10);
    EXPECT_TRUE(m.wantsAlert());
    EXPECT_EQ(m.alertingBank(), 0);
    m.onRfm(0, RfmScope::AllBank, true, 0);
    EXPECT_FALSE(m.wantsAlert());
    EXPECT_EQ(c.count(0, 10), 0u);
    EXPECT_EQ(m.stats().rfm_mitigations, 1u);
}

TEST(MoatTest, ProactivePeriodGatesRefMitigation)
{
    PracCounters c(1, 256);
    MoatConfig cfg = MoatConfig::forNbo(8, 2); // 1 proactive per 2 REFs
    Moat m(cfg, &c);
    for (int i = 0; i < 5; ++i)
        act(c, m, 0, 10); // above ETH=4
    m.onRefresh(0, 0);
    EXPECT_EQ(m.stats().proactive_mitigations, 0u);
    m.onRefresh(0, 0);
    EXPECT_EQ(m.stats().proactive_mitigations, 1u);
}

// ---- PrIDE -----------------------------------------------------------

TEST(PrideTest, SamplesAboutOneInPeriod)
{
    PracCounters c(1, 4096);
    PrideConfig cfg;
    cfg.sample_period = 16;
    Pride p(cfg, &c);
    for (int i = 0; i < 16000; ++i)
        act(c, p, 0, i % 512);
    double rate = static_cast<double>(p.stats().psq_insertions) / 16000.0;
    EXPECT_NEAR(rate, 1.0 / 16.0, 0.015);
}

TEST(PrideTest, RfmMitigatesSampledRow)
{
    PracCounters c(1, 256);
    PrideConfig cfg;
    cfg.sample_period = 1; // always sample: deterministic
    Pride p(cfg, &c);
    for (int i = 0; i < 5; ++i)
        act(c, p, 0, 40);
    p.onRfm(0, RfmScope::AllBank, false, 0);
    EXPECT_EQ(c.count(0, 40), 0u);
    EXPECT_EQ(p.stats().rfm_mitigations, 1u);
}

// ---- Mithril ---------------------------------------------------------

TEST(MithrilTest, HeavyHitterIsTracked)
{
    PracCounters c(1, 4096);
    MithrilConfig cfg;
    cfg.entries = 8;
    Mithril m(cfg, &c);
    // Background noise over many rows plus one heavy hitter.
    for (int i = 0; i < 2000; ++i) {
        act(c, m, 0, (i * 7) % 1024);
        if (i % 4 == 0)
            act(c, m, 0, 2048);
    }
    // Misra-Gries guarantee: the heavy hitter's estimate stays within
    // the spillover of its true count and is therefore mitigated first.
    long est = m.trackedCount(0, 2048);
    EXPECT_GT(est, 100);
    m.onRfm(0, RfmScope::AllBank, false, 0);
    EXPECT_EQ(c.count(0, 2048), 0u);
}

TEST(MithrilTest, SizingScalesInverselyWithTrh)
{
    auto hi = MithrilConfig::forTrh(4000);
    auto lo = MithrilConfig::forTrh(100);
    EXPECT_GT(lo.entries, hi.entries);
    EXPECT_NEAR(static_cast<double>(lo.entries) / hi.entries, 40.0, 2.0);
}

// ---- RFM policies ----------------------------------------------------

TEST(RfmPolicyTest, PrideRateMatchesPaperAnchor)
{
    // Paper §II-C2: ~1 RFM per 10 ACTs at TRH 250.
    EXPECT_EQ(RfmPolicy::forPride(250).acts_per_rfm, 10);
    EXPECT_FALSE(RfmPolicy::none().enabled());
    EXPECT_TRUE(RfmPolicy::forPride(250).enabled());
}

TEST(RfmPolicyTest, MithrilDenserThanPride)
{
    for (int trh : {64, 128, 256, 512, 1024})
        EXPECT_LE(RfmPolicy::forMithril(trh).acts_per_rfm,
                  RfmPolicy::forPride(trh).acts_per_rfm);
}

// ---- Factory ---------------------------------------------------------

TEST(FactoryTest, CreatesEveryKnownMitigation)
{
    PracCounters c(2, 256);
    for (const auto& name : mitigationNames()) {
        auto m = createMitigation(name, 32, 1, &c);
        if (name == "none") {
            EXPECT_EQ(m, nullptr);
        } else {
            ASSERT_NE(m, nullptr) << name;
            EXPECT_FALSE(m->name().empty());
            // Smoke: drive a few activations through it.
            for (int i = 0; i < 40; ++i)
                act(c, *m, 0, 8 * (i % 3));
            m->onRefresh(0, 0);
            m->onRfm(0, RfmScope::AllBank, true, 0);
        }
    }
}

// ---- MitigationRegistry ----------------------------------------------

TEST(RegistryTest, ListsDesignsWithDescriptions)
{
    auto& reg = MitigationRegistry::instance();
    auto names = reg.names();
    ASSERT_GE(names.size(), 12u);
    // Registration order starts with the baseline and the QPRAC family.
    EXPECT_EQ(names.front(), "none");
    for (const auto& name : names) {
        EXPECT_TRUE(reg.has(name)) << name;
        EXPECT_FALSE(reg.description(name).empty()) << name;
    }
    EXPECT_FALSE(reg.has("no-such-design"));
    // A backend is a parameter, never part of a name.
    EXPECT_FALSE(reg.has("qprac@coalescing"));
    EXPECT_TRUE(reg.description("qprac@coalescing").empty());
}

TEST(RegistryTest, BackendParamSelectsServiceQueue)
{
    PracCounters c(2, 256);
    MitigationParams p;
    p.nbo = 32;
    for (auto kind : qprac::core::allSqBackends()) {
        p.backend = kind;
        auto m = MitigationRegistry::instance().create("qprac", p, &c);
        const std::string name = qprac::core::sqBackendName(kind);
        ASSERT_NE(m, nullptr) << name;
        // Non-default backends surface in the design label.
        if (kind == qprac::core::SqBackendKind::Linear)
            EXPECT_EQ(m->name(), "QPRAC");
        else
            EXPECT_EQ(m->name(), "QPRAC@" + name);
        for (int i = 0; i < 20; ++i)
            act(c, *m, 0, 8 * (i % 3));
        m->onRfm(0, RfmScope::AllBank, true, 0);
    }
}

TEST(RegistryTest, ParamsOverridePsqSizeAndBackend)
{
    PracCounters c(1, 256);
    MitigationParams p;
    p.nbo = 8;
    p.psq_size = 3;
    p.backend = qprac::core::SqBackendKind::Coalescing;
    auto m = MitigationRegistry::instance().create("qprac", p, &c);
    ASSERT_NE(m, nullptr);
    auto* q = dynamic_cast<qprac::core::QpracCoalescing*>(m.get());
    ASSERT_NE(q, nullptr)
        << "backend override must select QpracT<CoalescingQueue>";
    EXPECT_EQ(q->config().psq_size, 3);
    EXPECT_EQ(q->config().nbo, 8);
}

TEST(RegistryTest, FullQpracConfigPassesThrough)
{
    PracCounters c(1, 256);
    qprac::core::QpracConfig cfg = qprac::core::QpracConfig::proactiveEa(64, 2);
    cfg.proactive_period_refs = 4;
    MitigationParams p;
    p.qprac = cfg;
    auto m = MitigationRegistry::instance().create(cfg.registryKey(), p, &c);
    auto* q = dynamic_cast<qprac::core::Qprac*>(m.get());
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->config().nbo, 64);
    EXPECT_EQ(q->config().npro, 32);
    EXPECT_EQ(q->config().proactive_period_refs, 4);
}

TEST(RegistryTest, UnknownNamesAreFatal)
{
    PracCounters c(1, 256);
    MitigationParams p;
    EXPECT_EXIT(
        { MitigationRegistry::instance().create("no-such", p, &c); },
        ::testing::ExitedWithCode(1), "unknown mitigation");
    EXPECT_EXIT(
        { MitigationRegistry::instance().create("qprac@linear", p, &c); },
        ::testing::ExitedWithCode(1), "unknown mitigation 'qprac@linear'");
}

TEST(RegistryTest, CustomDesignsCanRegister)
{
    auto& reg = MitigationRegistry::instance();
    reg.registerDesign("test-custom", "registered by a unit test",
                       [](const MitigationParams& p,
                          dram::PracCounters* counters) {
                           return qprac::core::makeQprac(
                               qprac::core::QpracConfig::base(p.nbo, p.nmit),
                               counters);
                       });
    EXPECT_TRUE(reg.has("test-custom"));
    PracCounters c(1, 256);
    auto m = reg.create("test-custom", {}, &c);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->name(), "QPRAC");
    // Leave the process-wide registry as we found it.
    EXPECT_TRUE(reg.unregisterDesign("test-custom"));
    EXPECT_FALSE(reg.has("test-custom"));
    EXPECT_FALSE(reg.unregisterDesign("test-custom"));
}
