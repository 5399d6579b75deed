/**
 * @file
 * Unit tests for the trace generators and the O3 core model.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "cpu/core.h"
#include "cpu/llc.h"
#include "cpu/trace.h"

using namespace qprac;
using cpu::CoreConfig;
using cpu::O3Core;
using cpu::SharedLlc;
using cpu::SyntheticStreamParams;
using cpu::SyntheticTraceSource;
using cpu::TraceEntry;
using cpu::VectorTraceSource;

TEST(Trace, VectorSourceReplaysOnce)
{
    TraceEntry e;
    e.bubbles = 3;
    e.has_mem = true;
    e.addr = 0x40;
    VectorTraceSource src({e, e});
    TraceEntry out;
    EXPECT_TRUE(src.next(out));
    EXPECT_EQ(out.bubbles, 3u);
    EXPECT_TRUE(src.next(out));
    EXPECT_FALSE(src.next(out));
}

TEST(Trace, SyntheticMemRateMatchesTarget)
{
    SyntheticStreamParams p;
    p.mem_per_kilo = 100.0; // 1 memory op per ~10 instructions
    p.seed = 5;
    SyntheticTraceSource src(p);
    std::uint64_t insts = 0, mems = 0;
    TraceEntry e;
    for (int i = 0; i < 20000; ++i) {
        src.next(e);
        insts += e.bubbles + 1;
        ++mems;
    }
    double mpk = 1000.0 * static_cast<double>(mems) /
                 static_cast<double>(insts);
    EXPECT_NEAR(mpk, 100.0, 5.0);
}

TEST(Trace, SyntheticStoreFraction)
{
    SyntheticStreamParams p;
    p.store_frac = 0.3;
    p.seed = 6;
    SyntheticTraceSource src(p);
    int stores = 0;
    TraceEntry e;
    for (int i = 0; i < 20000; ++i) {
        src.next(e);
        if (e.is_store)
            ++stores;
    }
    EXPECT_NEAR(stores / 20000.0, 0.3, 0.02);
}

TEST(Trace, SyntheticHotPoolFraction)
{
    SyntheticStreamParams p;
    p.hit_frac = 0.7;
    p.hot_lines = 64;
    p.seed = 7;
    SyntheticTraceSource src(p);
    int hot = 0;
    TraceEntry e;
    for (int i = 0; i < 20000; ++i) {
        src.next(e);
        if (e.addr / 64 < p.hot_lines)
            ++hot;
    }
    EXPECT_NEAR(hot / 20000.0, 0.7, 0.02);
}

TEST(Trace, SyntheticDeterministicPerSeed)
{
    SyntheticStreamParams p;
    p.seed = 99;
    SyntheticTraceSource a(p), b(p);
    TraceEntry ea, eb;
    for (int i = 0; i < 1000; ++i) {
        a.next(ea);
        b.next(eb);
        ASSERT_EQ(ea.addr, eb.addr);
        ASSERT_EQ(ea.bubbles, eb.bubbles);
        ASSERT_EQ(ea.is_store, eb.is_store);
    }
}

TEST(Trace, BaseAddressOffsetsStream)
{
    SyntheticStreamParams p;
    p.base_addr = 1ull << 34;
    p.seed = 1;
    SyntheticTraceSource src(p);
    TraceEntry e;
    for (int i = 0; i < 100; ++i) {
        src.next(e);
        EXPECT_GE(e.addr, p.base_addr);
    }
}

TEST(Trace, FileSourceParsesRamulatorFormat)
{
    std::string path = "/tmp/qprac_trace_test.txt";
    {
        std::ofstream out(path);
        out << "# a comment line\n";
        out << "3 0x1000\n";
        out << "5 0x2000 0x3000\n";
        out << "\n";
        out << "2 4096\n";
    }
    cpu::FileTraceSource src(path, false);
    EXPECT_EQ(src.entryCount(), 4u); // store line expands to two entries
    TraceEntry e;
    ASSERT_TRUE(src.next(e));
    EXPECT_EQ(e.bubbles, 3u);
    EXPECT_EQ(e.addr, 0x1000u);
    EXPECT_FALSE(e.is_store);
    ASSERT_TRUE(src.next(e));
    EXPECT_EQ(e.addr, 0x2000u);
    ASSERT_TRUE(src.next(e));
    EXPECT_TRUE(e.is_store);
    EXPECT_EQ(e.addr, 0x3000u);
    ASSERT_TRUE(src.next(e));
    EXPECT_EQ(e.addr, 4096u);
    EXPECT_FALSE(src.next(e));
    std::remove(path.c_str());
}

TEST(Trace, FileSourceLoops)
{
    std::string path = "/tmp/qprac_trace_loop.txt";
    {
        std::ofstream out(path);
        out << "1 0x40\n";
    }
    cpu::FileTraceSource src(path, true);
    TraceEntry e;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(src.next(e));
        EXPECT_EQ(e.addr, 0x40u);
    }
    std::remove(path.c_str());
}

TEST(Trace, FileSourceRejectsMissingFile)
{
    EXPECT_EXIT(cpu::FileTraceSource("/no/such/file.trace"),
                ::testing::ExitedWithCode(1), "cannot open");
}

namespace {

/** Minimal machine for core tests. */
struct Machine
{
    Machine()
        : org(makeOrg()),
          mapper(org),
          msys(org, dram::TimingParams::ddr5Prac(), makeCtrl(), nullptr),
          dev(msys.device(0)),
          mc(msys.controller(0)),
          llc(makeLlc(), msys, mapper)
    {
    }

    static dram::Organization
    makeOrg()
    {
        dram::Organization o;
        o.ranks = 1;
        o.bankgroups = 2;
        o.banks_per_group = 2;
        o.rows_per_bank = 4096;
        return o;
    }

    static ctrl::ControllerConfig
    makeCtrl()
    {
        ctrl::ControllerConfig c;
        c.abo.enabled = false;
        return c;
    }

    static cpu::LlcConfig
    makeLlc()
    {
        cpu::LlcConfig c;
        c.size_bytes = 256 * 1024;
        c.ways = 8;
        c.hit_latency = 8;
        return c;
    }

    void
    run(O3Core& core, Cycle cycles)
    {
        // Drive the MemorySystem (not the bare controller): it owns the
        // submit/completion mailboxes the LLC now talks through.
        // The LLC and core act every cycle, so each step covers one.
        for (Cycle c = 0; c < cycles && !core.done(); ++c) {
            msys.step(now, now + 1);
            llc.tick(now);
            core.tick(now);
            ++now;
        }
    }

    dram::Organization org;
    dram::AddressMapper mapper;
    ctrl::MemorySystem msys;
    dram::DramDevice& dev;
    ctrl::MemoryController& mc;
    SharedLlc llc;
    Cycle now = 0;
};

} // namespace

TEST(Core, BubbleOnlyTraceRetiresAtFullWidth)
{
    Machine m;
    std::vector<TraceEntry> entries;
    TraceEntry e;
    e.bubbles = 999;
    e.has_mem = false;
    for (int i = 0; i < 50; ++i)
        entries.push_back(e);
    VectorTraceSource trace(entries);
    CoreConfig cfg;
    cfg.target_insts = 40'000;
    O3Core core(0, cfg, trace, m.llc);
    m.run(core, 100'000);
    ASSERT_TRUE(core.done());
    // 4-wide with no memory stalls: IPC close to 4.
    EXPECT_GT(core.ipc(), 3.5);
}

TEST(Core, MemoryBoundTraceHasLowIpc)
{
    Machine m;
    SyntheticStreamParams p;
    p.mem_per_kilo = 500; // every other instruction is memory
    p.hit_frac = 0.0;
    p.seq_frac = 0.0; // random rows: every miss is a DRAM row miss
    p.footprint_lines = 1 << 20;
    p.seed = 3;
    SyntheticTraceSource trace(p);
    CoreConfig cfg;
    cfg.target_insts = 20'000;
    O3Core core(0, cfg, trace, m.llc);
    m.run(core, 3'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_LT(core.ipc(), 2.0);
    EXPECT_GT(core.ipc(), 0.01);
    EXPECT_GT(m.dev.stats().acts, 100u);
}

TEST(Core, StatsExported)
{
    Machine m;
    std::vector<TraceEntry> entries;
    TraceEntry e;
    e.bubbles = 10;
    e.has_mem = true;
    e.addr = 0x40;
    entries.push_back(e);
    e.is_store = true;
    entries.push_back(e);
    e.has_mem = false;
    e.bubbles = 5000;
    entries.push_back(e);
    VectorTraceSource trace(entries);
    CoreConfig cfg;
    cfg.target_insts = 1000;
    O3Core core(0, cfg, trace, m.llc);
    m.run(core, 100'000);
    StatSet s;
    core.exportStats(s, "core.");
    EXPECT_GE(s.get("core.retired"), 1000.0);
    EXPECT_EQ(s.get("core.loads"), 1.0);
    EXPECT_EQ(s.get("core.stores"), 1.0);
    EXPECT_GT(s.get("core.ipc"), 0.0);
}
