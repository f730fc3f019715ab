/**
 * @file
 * Unit tests for the per-core instruction cache and the shared
 * instruction memory port.
 */

#include <gtest/gtest.h>

#include "mem/icache.hh"

using namespace tengig;

namespace {

struct ICacheFixture : public ::testing::Test
{
    ICacheFixture()
        : cpu("cpu", 5000), imem(cpu, /*access_cycles=*/2),
          cache(imem, 8 * 1024, 2, 32)
    {}

    ClockDomain cpu;
    InstructionMemory imem;
    ICache cache;
};

} // namespace

TEST_F(ICacheFixture, ColdMissThenHit)
{
    Tick stall = cache.lookup(0x1000, 0);
    EXPECT_GT(stall, 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.lookup(0x1000, stall), 0u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(ICacheFixture, SameLineDifferentWordHits)
{
    cache.lookup(0x1000, 0);
    EXPECT_EQ(cache.lookup(0x101c, 100000), 0u); // same 32B line
    EXPECT_EQ(cache.lookup(0x1020, 100000) > 0, true); // next line
}

TEST_F(ICacheFixture, MissLatencyIsAccessPlusBeats)
{
    // 2-cycle access + 2 beats (32B / 16B) = 4 cycles = 20000 ticks.
    Tick stall = cache.lookup(0x0, 0);
    EXPECT_EQ(stall, 4 * 5000u);
}

TEST_F(ICacheFixture, TwoWaysHoldConflictingLines)
{
    // 8KB, 2-way, 32B lines -> 128 sets -> set stride is 4096 bytes.
    cache.lookup(0x0000, 0);
    cache.lookup(0x1000, 0); // same set, second way
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.lookup(0x0000, 100000), 0u);
    EXPECT_EQ(cache.lookup(0x1000, 100000), 0u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(ICacheFixture, LruEvictsLeastRecentlyUsed)
{
    cache.lookup(0x0000, 0); // way A
    cache.lookup(0x1000, 0); // way B
    cache.lookup(0x0000, 0); // touch A
    cache.lookup(0x2000, 0); // same set; evicts B (LRU)
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 3u);
    // Every lookup refreshes its line, so check the survivors first and
    // the evicted line last: refilling B evicts one of them.
    EXPECT_EQ(cache.lookup(0x0000, 100000), 0u);
    EXPECT_EQ(cache.lookup(0x2000, 100000), 0u);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_GT(cache.lookup(0x1000, 100000), 0u);
    EXPECT_EQ(cache.misses(), 4u);
}

TEST_F(ICacheFixture, SharedPortSerializesFills)
{
    // Two caches filling at the same instant: the second fill waits for
    // the first to release the port.
    ICache other(imem, 8 * 1024, 2, 32);
    Tick s1 = cache.lookup(0x0, 0);
    Tick s2 = other.lookup(0x4000, 0);
    EXPECT_EQ(s1, 4 * 5000u);
    EXPECT_EQ(s2, 8 * 5000u); // queued behind the first fill
}

TEST_F(ICacheFixture, PortStatsAndBandwidth)
{
    cache.lookup(0x0, 0);
    cache.lookup(0x40, 0);
    EXPECT_EQ(imem.fillCount(), 2u);
    EXPECT_EQ(imem.bytesTransferred(), 64u);
    // Peak: 16B/cycle @200MHz = 25.6 Gb/s.
    EXPECT_NEAR(imem.peakBandwidthGbps(), 25.6, 1e-9);
    // 64B over 1 us = 0.512 Gb/s.
    EXPECT_NEAR(imem.consumedBandwidthGbps(1000000), 0.512, 1e-9);
    EXPECT_GT(imem.utilization(1000000), 0.0);
    EXPECT_LT(imem.utilization(1000000), 0.1);
}

TEST_F(ICacheFixture, MissRatioComputation)
{
    cache.lookup(0x0, 0);           // miss
    for (int i = 0; i < 9; ++i)
        cache.lookup(0x0, 0);       // hits
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.1);
    cache.resetStats();
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
}

TEST(ICacheConfig, RejectsBadGeometry)
{
    ClockDomain cpu("cpu", 5000);
    InstructionMemory imem(cpu);
    EXPECT_THROW(ICache(imem, 8 * 1024, 2, 33), FatalError);
    EXPECT_THROW(ICache(imem, 8 * 1024, 0, 32), FatalError);
    EXPECT_THROW(ICache(imem, 8 * 1024, 3, 32), FatalError);
}

TEST(ICacheSweep, CapacityReducesMissesOnLoopingFootprint)
{
    // A looping footprint larger than a small cache but smaller than a
    // big one: the big cache converges to zero steady-state misses.
    ClockDomain cpu("cpu", 5000);
    InstructionMemory imem(cpu);
    ICache small(imem, 1 * 1024, 2, 32);
    ICache big(imem, 16 * 1024, 2, 32);

    auto run = [](ICache &c) {
        c.resetStats();
        for (int iter = 0; iter < 10; ++iter)
            for (Addr pc = 0; pc < 4 * 1024; pc += 4)
                c.lookup(pc, 0);
        return c.missRatio();
    };
    double small_ratio = run(small);
    double big_ratio = run(big);
    EXPECT_GT(small_ratio, big_ratio);
    EXPECT_LT(big_ratio, 0.02);
}
