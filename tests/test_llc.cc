/**
 * @file
 * Unit tests for the shared LLC (hits, misses, MSHRs, writebacks).
 */
#include <gtest/gtest.h>

#include "cpu/llc.h"

using namespace qprac;
using cpu::LlcConfig;
using cpu::SharedLlc;
using ctrl::ControllerConfig;
using ctrl::MemoryController;
using ctrl::MemorySystem;
using dram::AddressMapper;
using dram::DramDevice;
using dram::Organization;
using dram::TimingParams;

namespace {

struct Fixture
{
    Fixture()
        : org(makeOrg()),
          timing(TimingParams::ddr5Prac()),
          mapper(org),
          msys(org, timing, makeCtrl(), nullptr),
          dev(msys.device(0)),
          mc(msys.controller(0)),
          llc(makeLlc(), msys, mapper)
    {
    }

    static Organization
    makeOrg()
    {
        Organization o;
        o.ranks = 1;
        o.bankgroups = 2;
        o.banks_per_group = 2;
        o.rows_per_bank = 4096;
        return o;
    }

    static ControllerConfig
    makeCtrl()
    {
        ControllerConfig c;
        c.abo.enabled = false;
        return c;
    }

    static LlcConfig
    makeLlc()
    {
        LlcConfig c;
        c.size_bytes = 64 * 1024; // small cache to exercise evictions
        c.ways = 4;
        c.hit_latency = 8;
        c.mshrs = 4;
        return c;
    }

    void
    run(Cycle cycles)
    {
        // Drive the MemorySystem (not the bare controller): it owns the
        // submit/completion mailboxes the LLC now talks through.
        // The LLC acts every cycle, so each step covers one cycle.
        for (Cycle c = 0; c < cycles; ++c) {
            msys.step(now, now + 1);
            llc.tick(now);
            ++now;
        }
    }

    Organization org;
    TimingParams timing;
    AddressMapper mapper;
    MemorySystem msys;
    DramDevice& dev;
    MemoryController& mc;
    SharedLlc llc;
    Cycle now = 0;
};

} // namespace

TEST(Llc, MissThenHit)
{
    Fixture f;
    int done = 0;
    ASSERT_TRUE(f.llc.access(0x1000, false, 0, [&] { ++done; }, f.now));
    f.run(2000);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(f.llc.stats().load_misses, 1u);
    // Second access to the same line hits.
    ASSERT_TRUE(f.llc.access(0x1000, false, 0, [&] { ++done; }, f.now));
    f.run(50);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.llc.stats().load_hits, 1u);
}

TEST(Llc, HitLatencyApplied)
{
    Fixture f;
    // Warm the line.
    bool warm = false;
    f.llc.access(0x40, false, 0, [&] { warm = true; }, f.now);
    f.run(2000);
    ASSERT_TRUE(warm);
    Cycle start = f.now;
    Cycle done_at = 0;
    f.llc.access(0x40, false, 0, [&] { done_at = f.now; }, f.now);
    f.run(50);
    EXPECT_GE(done_at, start + 8);
    EXPECT_LE(done_at, start + 12);
}

TEST(Llc, MshrMergesSameLine)
{
    Fixture f;
    int done = 0;
    ASSERT_TRUE(f.llc.access(0x2000, false, 0, [&] { ++done; }, f.now));
    ASSERT_TRUE(f.llc.access(0x2020, false, 0, [&] { ++done; }, f.now));
    EXPECT_EQ(f.llc.stats().mshr_merges, 1u); // same 64B line
    f.run(2000);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.mc.stats().reads_enqueued, 1u); // one fill only
}

TEST(Llc, MshrExhaustionBackpressures)
{
    Fixture f;
    int accepted = 0;
    for (int i = 0; i < 8; ++i)
        if (f.llc.access(static_cast<Addr>(0x100000 + i * 0x10000),
                         false, 0, [] {}, f.now))
            ++accepted;
    EXPECT_EQ(accepted, 4); // mshrs = 4
    f.run(3000);
    // After fills complete, new misses are accepted again.
    EXPECT_TRUE(f.llc.access(0x900000, false, 0, [] {}, f.now));
}

TEST(Llc, StoreAllocatesDirtyWithoutFetch)
{
    Fixture f;
    ASSERT_TRUE(f.llc.access(0x3000, true, 0, {}, f.now));
    EXPECT_EQ(f.llc.stats().store_misses, 1u);
    EXPECT_EQ(f.mc.stats().reads_enqueued, 0u); // no fetch on write
    // A subsequent load to the same line hits.
    int done = 0;
    ASSERT_TRUE(f.llc.access(0x3000, false, 0, [&] { ++done; }, f.now));
    f.run(50);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(f.llc.stats().load_hits, 1u);
}

TEST(Llc, DirtyEvictionWritesBack)
{
    Fixture f;
    // 64KB / 64B / 4 ways = 256 sets; same set every 256 lines.
    // Fill one set with 4 dirty lines, then force an eviction.
    for (int w = 0; w < 4; ++w) {
        Addr a = static_cast<Addr>(w) * 256 * 64; // same set index 0
        ASSERT_TRUE(f.llc.access(a, true, 0, {}, f.now));
    }
    EXPECT_EQ(f.llc.stats().writebacks, 0u);
    Addr a5 = static_cast<Addr>(4) * 256 * 64;
    ASSERT_TRUE(f.llc.access(a5, true, 0, {}, f.now));
    EXPECT_EQ(f.llc.stats().writebacks, 1u);
    f.run(5000);
    EXPECT_EQ(f.dev.stats().writes, 1u);
}

TEST(Llc, LruEvictsOldest)
{
    Fixture f;
    // Warm 4 ways of set 0 via loads (clean lines).
    for (int w = 0; w < 4; ++w) {
        f.llc.access(static_cast<Addr>(w) * 256 * 64, false, 0, [] {},
                     f.now);
        f.run(2000);
    }
    // Touch way 0 so way 1 becomes LRU.
    f.llc.access(0, false, 0, [] {}, f.now);
    f.run(50);
    // Install a new line; way 1 (addr 256*64) should be evicted.
    f.llc.access(static_cast<Addr>(10) * 256 * 64, false, 0, [] {},
                 f.now);
    f.run(2000);
    int hits_before = static_cast<int>(f.llc.stats().load_hits);
    f.llc.access(0, false, 0, [] {}, f.now); // still resident
    f.run(50);
    EXPECT_EQ(static_cast<int>(f.llc.stats().load_hits),
              hits_before + 1);
    f.llc.access(static_cast<Addr>(1) * 256 * 64, false, 0, [] {},
                 f.now); // evicted -> miss (4 warm + new line + this)
    EXPECT_EQ(f.llc.stats().load_misses, 6u);
    f.run(2000);
}

TEST(Llc, QuiescedReflectsOutstandingWork)
{
    Fixture f;
    EXPECT_TRUE(f.llc.quiesced());
    f.llc.access(0x5000, false, 0, [] {}, f.now);
    EXPECT_FALSE(f.llc.quiesced());
    f.run(2000);
    EXPECT_TRUE(f.llc.quiesced());
}
