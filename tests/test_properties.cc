/**
 * @file
 * Cross-module property tests: randomized differential checks of the
 * invariants the paper's security argument rests on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "attacks/wave_attack.h"
#include "common/rng.h"
#include "core/psq.h"
#include "core/qprac.h"
#include "dram/prac_counters.h"
#include "reference_queue.h"
#include "security/prac_model.h"

using namespace qprac;
using core::PriorityServiceQueue;
using core::Qprac;
using core::QpracConfig;
using dram::PracCounters;
using dram::RfmScope;
using test::ReferenceQueue;

/**
 * Property 1 (§III-B3): under arbitrary traffic, whenever the PSQ is
 * full, its minimum count is at least as high as any count it ever
 * rejected since the last eviction of that row — equivalently, a row
 * whose current count exceeds the queue minimum is ALWAYS admitted.
 * This is the property FIFO queues lack (Fill+Escape).
 */
TEST(Properties, PsqNeverRejectsAboveMinimum)
{
    Rng rng(2024);
    for (int trial = 0; trial < 50; ++trial) {
        PriorityServiceQueue psq(4);
        std::map<int, ActCount> counts;
        for (int step = 0; step < 3000; ++step) {
            int row = static_cast<int>(rng.nextBelow(32));
            ActCount c = ++counts[row];
            ActCount min_before = psq.minCount();
            auto result = psq.onActivate(row, c);
            if (result == core::PsqInsert::Rejected)
                ASSERT_LE(c, min_before)
                    << "a row above the minimum was rejected";
            else
                ASSERT_TRUE(psq.contains(row));
        }
    }
}

/**
 * Property 2 (§IV-B): after any activation sequence, the row QPRAC
 * would mitigate next (PSQ top) has a count no lower than the
 * (size)-th highest true per-row count — with a 5-entry PSQ and
 * single-row mitigations, the PSQ top IS the global maximum whenever
 * the maximum was activated at its current count.
 */
TEST(Properties, PsqTopMatchesGlobalMaxAfterItsActivation)
{
    Rng rng(77);
    for (int trial = 0; trial < 30; ++trial) {
        PracCounters ctrs(1, 512);
        Qprac q(QpracConfig::base(1 << 20, 1), &ctrs); // alerts disabled
        int last_row = -1;
        for (int step = 0; step < 2000; ++step) {
            int row = static_cast<int>(rng.nextBelow(64)) * 8;
            ActCount c = ctrs.onActivate(0, row);
            q.onActivate(0, row, c, 0);
            last_row = row;
        }
        ActCount global_max = ctrs.maxCount(0);
        if (ctrs.count(0, last_row) == global_max) {
            ASSERT_EQ(q.psq(0).maxCount(), global_max);
        }
        // In all cases the tracked top is a lower bound on reality and
        // within the truth (never an overestimate).
        ASSERT_LE(q.psq(0).maxCount(), global_max);
    }
}

/**
 * Property 3: PSQ and Ideal tracking mitigate the same total number of
 * rows under the wave attack, and neither lets any row exceed the
 * analytical bound.
 */
TEST(Properties, WaveAttackBoundHoldsAcrossConfigs)
{
    Rng rng(5);
    for (int trial = 0; trial < 6; ++trial) {
        attacks::WaveAttackConfig wc;
        wc.nbo = static_cast<int>(8 + rng.nextBelow(48));
        wc.nmit = (trial % 3 == 0) ? 1 : (trial % 3 == 1) ? 2 : 4;
        wc.r1 = static_cast<long>(300 + rng.nextBelow(3000));
        wc.psq_size = 5;
        auto sim = attacks::simulateWaveAttack(wc);
        security::PracModelConfig mc =
            security::PracModelConfig::prac(wc.nmit);
        security::PracSecurityModel model(mc);
        int bound = wc.nbo + model.nOnline(wc.r1);
        ASSERT_LE(static_cast<int>(sim.max_count), bound + 2)
            << "nbo=" << wc.nbo << " nmit=" << wc.nmit
            << " r1=" << wc.r1;
    }
}

/**
 * Property 4: mitigation counter hygiene — victims gain exactly +1 per
 * mitigation of an in-range neighbour and the aggressor resets, for
 * arbitrary mitigation sequences.
 */
TEST(Properties, MitigationCounterArithmetic)
{
    Rng rng(99);
    PracCounters ctrs(1, 256, 2);
    std::vector<long> shadow(256, 0);
    for (int step = 0; step < 2000; ++step) {
        if (rng.nextBool(0.8)) {
            int row = static_cast<int>(rng.nextBelow(256));
            ctrs.onActivate(0, row);
            ++shadow[static_cast<std::size_t>(row)];
        } else {
            int row = static_cast<int>(rng.nextBelow(256));
            ctrs.mitigate(0, row, nullptr);
            shadow[static_cast<std::size_t>(row)] = 0;
            for (int d = 1; d <= 2; ++d) {
                if (row - d >= 0)
                    ++shadow[static_cast<std::size_t>(row - d)];
                if (row + d < 256)
                    ++shadow[static_cast<std::size_t>(row + d)];
            }
        }
    }
    for (int row = 0; row < 256; ++row)
        ASSERT_EQ(ctrs.count(0, row),
                  static_cast<ActCount>(
                      shadow[static_cast<std::size_t>(row)]))
            << "row " << row;
}

/**
 * Property 5: the analytical model is monotone — more mitigations per
 * alert, or proactive mitigation, never hurt (never raise secure TRH at
 * fixed NBO).
 */
TEST(Properties, ModelMonotonicity)
{
    using security::PracModelConfig;
    using security::PracSecurityModel;
    for (int nbo : {1, 4, 16, 32, 64}) {
        PracSecurityModel m1(PracModelConfig::prac(1));
        PracSecurityModel m2(PracModelConfig::prac(2));
        PracSecurityModel m4(PracModelConfig::prac(4));
        EXPECT_GE(m1.secureTrh(nbo), m2.secureTrh(nbo));
        EXPECT_GE(m2.secureTrh(nbo), m4.secureTrh(nbo));
        PracSecurityModel p1(PracModelConfig::qpracProactive(1));
        EXPECT_GE(m1.secureTrh(nbo), p1.secureTrh(nbo));
    }
}

/** Parameterized sweep of Property 1 across queue capacities. */
class PsqAdmissionProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(PsqAdmissionProperty, HoldsForCapacity)
{
    const int capacity = GetParam();
    Rng rng(1000 + static_cast<std::uint64_t>(capacity));
    PriorityServiceQueue psq(capacity);
    std::map<int, ActCount> counts;
    for (int step = 0; step < 4000; ++step) {
        int row = static_cast<int>(rng.nextBelow(64));
        ActCount c = ++counts[row];
        ActCount min_before = psq.minCount();
        if (psq.onActivate(row, c) == core::PsqInsert::Rejected) {
            ASSERT_LE(c, min_before);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, PsqAdmissionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 32));

/**
 * Property 6 (backend equivalence): LinearCamQueue is
 * decision-equivalent to the contract's reference model
 * (tests/reference_queue.h). Fed an identical random activation stream
 * — including interleaved mitigations (remove-top, the way QPRAC
 * drains the queue) — both return the same insert outcome and expose
 * the same top/min/max/membership at every step. This is what lets any
 * backend stand in under QPRAC's security argument: the proof
 * constrains decisions, not data structures.
 */
class BackendEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(BackendEquivalence, IdenticalDecisionsOnRandomStreams)
{
    const int capacity = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(capacity));
        core::LinearCamQueue linear(capacity);
        ReferenceQueue ref(capacity);
        std::map<int, ActCount> counts;

        for (int step = 0; step < 8000; ++step) {
            if (rng.nextBool(0.03)) {
                // Mitigation: both queues must pick the same victim.
                const core::SqEntry* lt = linear.top();
                const core::SqEntry* rt = ref.top();
                ASSERT_EQ(lt == nullptr, rt == nullptr);
                if (lt) {
                    ASSERT_EQ(lt->row, rt->row) << "step " << step;
                    ASSERT_EQ(lt->count, rt->count);
                    const int row = lt->row;
                    counts[row] = 0; // PRAC reset
                    ASSERT_TRUE(linear.remove(row));
                    ASSERT_TRUE(ref.remove(row));
                }
                continue;
            }
            int row = static_cast<int>(rng.nextBelow(48));
            ActCount c = ++counts[row];
            core::PsqInsert lr = linear.onActivate(row, c);
            core::PsqInsert rr = ref.onActivate(row, c);
            ASSERT_EQ(lr, rr) << "step " << step << " row " << row
                              << " count " << c;
            ASSERT_EQ(linear.size(), ref.size());
            ASSERT_EQ(linear.minCount(), ref.minCount());
            ASSERT_EQ(linear.maxCount(), ref.maxCount());
            ASSERT_EQ(linear.contains(row), ref.contains(row));
            ASSERT_EQ(linear.countOf(row), ref.countOf(row));
        }

        // Final state: identical membership, count for count.
        auto ls = linear.snapshot();
        auto rs = ref.snapshot();
        ASSERT_EQ(ls.size(), rs.size());
        auto byRow = [](const core::SqEntry& a, const core::SqEntry& b) {
            return a.row < b.row;
        };
        std::sort(ls.begin(), ls.end(), byRow);
        std::sort(rs.begin(), rs.end(), byRow);
        for (std::size_t i = 0; i < ls.size(); ++i) {
            ASSERT_EQ(ls[i].row, rs[i].row);
            ASSERT_EQ(ls[i].count, rs[i].count);
            ASSERT_EQ(ls[i].seq, rs[i].seq);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BackendEquivalence,
                         ::testing::Values(1, 2, 5, 16, 64, 256));

namespace {

/**
 * QPRAC's opportunistic + energy-aware proactive policy (§III-B to
 * §III-D) restated over one ReferenceQueue per bank: the independent
 * engine Property 7 holds Qprac against.
 */
class ReferenceQprac
{
  public:
    ReferenceQprac(const QpracConfig& cfg, PracCounters* counters)
        : cfg_(cfg), counters_(counters),
          over_(static_cast<std::size_t>(counters->numBanks()), 0)
    {
        for (int b = 0; b < counters->numBanks(); ++b)
            queues_.emplace_back(cfg.psq_size);
    }

    void onActivate(int bank, int row, ActCount count)
    {
        insert(bank, row, count);
        char& over = over_[static_cast<std::size_t>(bank)];
        if (count >= static_cast<ActCount>(cfg_.nbo) && !over) {
            over = 1;
            ++stats.alerts;
        }
    }

    /** Opportunistic: every RFM'd bank mitigates its top entry. */
    void onRfm(int bank)
    {
        if (mitigateTop(bank, 0))
            ++stats.rfm_mitigations;
    }

    /** Energy-aware proactive: mitigate on REF only at >= NPRO. */
    void onRefresh(int bank)
    {
        if (mitigateTop(bank, static_cast<ActCount>(cfg_.npro)))
            ++stats.proactive_mitigations;
    }

    bool wantsAlert() const { return alertingBank() >= 0; }

    int alertingBank() const
    {
        auto it = std::find(over_.begin(), over_.end(), 1);
        return it == over_.end() ? -1
                                 : static_cast<int>(it - over_.begin());
    }

    ActCount topCount(int bank) const
    {
        return queues_[static_cast<std::size_t>(bank)].maxCount();
    }

    dram::MitigationStats stats;

  private:
    void insert(int bank, int row, ActCount count)
    {
        const core::PsqInsert r =
            queues_[static_cast<std::size_t>(bank)].onActivate(row, count);
        if (r == core::PsqInsert::Inserted || r == core::PsqInsert::Evicted)
            ++stats.psq_insertions;
        if (r == core::PsqInsert::Evicted)
            ++stats.psq_evictions;
    }

    bool mitigateTop(int bank, ActCount min_count)
    {
        ReferenceQueue& q = queues_[static_cast<std::size_t>(bank)];
        const core::SqEntry* top = q.top();
        if (!top || top->count < min_count)
            return false;
        const int row = top->row;
        PracCounters::VictimInfo victims[16];
        const int nv = counters_->mitigate(bank, row, victims);
        q.remove(row);
        // Transitive attacks: refreshed victims may now qualify.
        for (int i = 0; i < nv; ++i)
            insert(bank, victims[i].row, victims[i].count);
        over_[static_cast<std::size_t>(bank)] =
            q.maxCount() >= static_cast<ActCount>(cfg_.nbo);
        return true;
    }

    QpracConfig cfg_;
    PracCounters* counters_;
    std::vector<ReferenceQueue> queues_;
    std::vector<char> over_; ///< per bank: top count >= NBO
};

} // namespace

/**
 * Property 7: the full QPRAC engine over the linear CAM agrees with
 * the reference engine — same alerts, same mitigation counts, same
 * per-bank top counts — on a random stream with RFM/REF opportunities
 * mixed in.
 */
TEST(Properties, QpracEngineAgreesAcrossEquivalentBackends)
{
    Rng rng(31337);
    PracCounters c1(2, 1024), c2(2, 1024);
    QpracConfig cfg = QpracConfig::proactiveEa(16, 1);
    Qprac linear(cfg, &c1);
    ReferenceQprac ref(cfg, &c2);

    for (int step = 0; step < 20000; ++step) {
        int bank = static_cast<int>(rng.nextBelow(2));
        if (rng.nextBool(0.01)) {
            linear.onRefresh(bank, 0);
            ref.onRefresh(bank);
        } else if (rng.nextBool(0.02)) {
            bool alerting = linear.alertingBank() == bank;
            ASSERT_EQ(alerting, ref.alertingBank() == bank);
            linear.onRfm(bank, RfmScope::AllBank, alerting, 0);
            ref.onRfm(bank);
        } else {
            int row = static_cast<int>(rng.nextBelow(64)) * 8;
            ActCount a = c1.onActivate(bank, row);
            ActCount b = c2.onActivate(bank, row);
            ASSERT_EQ(a, b);
            linear.onActivate(bank, row, a, 0);
            ref.onActivate(bank, row, b);
        }
        ASSERT_EQ(linear.wantsAlert(), ref.wantsAlert()) << step;
        ASSERT_EQ(linear.topCount(bank), ref.topCount(bank)) << step;
    }
    EXPECT_EQ(linear.stats().alerts, ref.stats.alerts);
    EXPECT_EQ(linear.stats().rfm_mitigations, ref.stats.rfm_mitigations);
    EXPECT_EQ(linear.stats().proactive_mitigations,
              ref.stats.proactive_mitigations);
    EXPECT_EQ(linear.stats().psq_insertions, ref.stats.psq_insertions);
    EXPECT_EQ(linear.stats().psq_evictions, ref.stats.psq_evictions);
    EXPECT_GT(linear.stats().rfm_mitigations, 0u);
}
