/**
 * @file
 * Unit tests for the banked scratchpad: storage and the paper's atomic
 * set/update RMW instructions, crossbar timing and arbitration.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mem/scratchpad.hh"
#include "sim/random.hh"

using namespace tengig;

namespace {

struct SpadFixture : public ::testing::Test
{
    SpadFixture()
        : cpu("cpu", 5000),
          spad(eq, cpu, /*requesters=*/8, /*capacity=*/256 * 1024,
               /*banks=*/4)
    {}

    EventQueue eq;
    ClockDomain cpu;
    Scratchpad spad;
};

} // namespace

TEST_F(SpadFixture, StorageLoadStore)
{
    auto &st = spad.storage();
    st.storeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(st.loadWord(0x100), 0xdeadbeefu);
    st.storeByte(0x104, 0xab);
    EXPECT_EQ(st.loadByte(0x104), 0xab);
}

TEST_F(SpadFixture, StorageAllocatorAlignsAndAdvances)
{
    auto &st = spad.storage();
    Addr a = st.alloc(10, 8);
    Addr b = st.alloc(4, 8);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GE(b, a + 10);
}

TEST_F(SpadFixture, StorageOutOfRangePanics)
{
    EXPECT_THROW(spad.storage().loadWord(256 * 1024), PanicError);
}

TEST_F(SpadFixture, TimedAccessOutOfRangePanics)
{
    EXPECT_THROW(spad.access(0, 256 * 1024, SpadOp::Read, nullptr),
                 PanicError);
}

TEST_F(SpadFixture, BankInterleavingByWord)
{
    EXPECT_EQ(spad.bankOf(0x0), 0u);
    EXPECT_EQ(spad.bankOf(0x4), 1u);
    EXPECT_EQ(spad.bankOf(0x8), 2u);
    EXPECT_EQ(spad.bankOf(0xc), 3u);
    EXPECT_EQ(spad.bankOf(0x10), 0u);
}

TEST_F(SpadFixture, UncontendedReadTakesTwoCycles)
{
    Tick done = 0;
    eq.schedule(0, [&] {
        spad.access(0, 0x40, SpadOp::Read, [&](Cycles conflict) {
            done = eq.curTick();
            EXPECT_EQ(conflict, 0u);
        });
    });
    eq.run();
    EXPECT_EQ(done, 2 * 5000u);
}

TEST_F(SpadFixture, WriteAcceptsAfterOneCycle)
{
    Tick done = 0;
    eq.schedule(0, [&] {
        spad.access(0, 0x40, SpadOp::Write, [&](Cycles conflict) {
            done = eq.curTick();
            EXPECT_EQ(conflict, 0u);
        });
    });
    eq.run();
    EXPECT_EQ(done, 5000u);
}

TEST_F(SpadFixture, SameBankConflictSerializes)
{
    // Two requesters hitting the same bank in the same cycle: the second
    // grant waits one cycle and reports one conflict cycle.
    std::vector<Tick> done(2, 0);
    std::vector<Cycles> conf(2, 0);
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 2; ++i) {
            spad.access(i, 0x40, SpadOp::Read, [&, i](Cycles conflict) {
                done[i] = eq.curTick();
                conf[i] = conflict;
            });
        }
    });
    eq.run();
    EXPECT_EQ(done[0], 2 * 5000u);
    EXPECT_EQ(done[1], 3 * 5000u);
    EXPECT_EQ(conf[0], 0u);
    EXPECT_EQ(conf[1], 1u);
    EXPECT_EQ(spad.totalConflictCycles(), 1u);
}

TEST_F(SpadFixture, DifferentBanksProceedInParallel)
{
    std::vector<Tick> done(4, 0);
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 4; ++i) {
            spad.access(i, 0x40 + 4 * i, SpadOp::Read,
                        [&, i](Cycles) { done[i] = eq.curTick(); });
        }
    });
    eq.run();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(done[i], 2 * 5000u) << "bank " << i;
}

TEST_F(SpadFixture, RoundRobinIsFairUnderSaturation)
{
    // Requesters 0..3 continuously hammer bank 0; each should receive an
    // equal share of grants.
    std::map<unsigned, int> grants;
    int remaining = 400;
    std::function<void(unsigned)> issue = [&](unsigned who) {
        spad.access(who, 0x0, SpadOp::Read, [&, who](Cycles) {
            ++grants[who];
            if (--remaining > 0)
                issue(who);
        });
    };
    eq.schedule(0, [&] {
        for (unsigned i = 0; i < 4; ++i)
            issue(i);
    });
    eq.run();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_NEAR(grants[i], 100, 2) << "requester " << i;
}

TEST_F(SpadFixture, OneGrantPerBankPerCycle)
{
    // Issue N requests to one bank at tick 0; completion times must be
    // consecutive cycles (grant rate = 1/cycle).
    constexpr int n = 10;
    std::vector<Tick> done;
    eq.schedule(0, [&] {
        for (int i = 0; i < n; ++i) {
            spad.access(0, 0x0, SpadOp::Read,
                        [&](Cycles) { done.push_back(eq.curTick()); });
        }
    });
    eq.run();
    ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(done[i], (2 + static_cast<Tick>(i)) * 5000u);
}

TEST_F(SpadFixture, LateArrivalDoesNotDoubleGrantInOneCycle)
{
    // A request arriving in the same tick as a grant must wait for the
    // next cycle.
    std::vector<Tick> done;
    eq.schedule(0, [&] {
        spad.access(0, 0x0, SpadOp::Read,
                    [&](Cycles) { done.push_back(eq.curTick()); });
        // Arrives later in the same tick via a lower-priority event.
        eq.schedule(0, [&] {
            spad.access(1, 0x0, SpadOp::Read,
                        [&](Cycles) { done.push_back(eq.curTick()); });
        }, EventPriority::Cpu);
    });
    eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 2 * 5000u);
    EXPECT_EQ(done[1], 3 * 5000u);
}

TEST_F(SpadFixture, AtomicSetSetsExactlyOneBit)
{
    auto &st = spad.storage();
    st.storeWord(0x80, 0);
    st.atomicSet(0x80, 5);
    EXPECT_EQ(st.loadWord(0x80), 1u << 5);
}

TEST_F(SpadFixture, AtomicUpdateClearsConsecutiveRun)
{
    // bits 3,4,5,7 set; update starting at bit 3 clears 3,4,5 and
    // returns 3; bit 7 remains.
    auto &st = spad.storage();
    st.storeWord(0x80, 0b10111000);
    EXPECT_EQ(st.atomicUpdate(0x80, 3), 3u);
    EXPECT_EQ(st.loadWord(0x80), 0b10000000u);
}

TEST_F(SpadFixture, AtomicUpdateStartBitClearReturnsZero)
{
    auto &st = spad.storage();
    st.storeWord(0x80, 0b100);
    EXPECT_EQ(st.atomicUpdate(0x80, 0), 0u);
    EXPECT_EQ(st.loadWord(0x80), 0b100u);
}

TEST_F(SpadFixture, AtomicUpdateStopsAtWordBoundary)
{
    // Entire word set: update from bit 0 clears all 32 and stops.
    auto &st = spad.storage();
    st.storeWord(0x80, 0xffffffff);
    st.storeWord(0x84, 0xffffffff);
    EXPECT_EQ(st.atomicUpdate(0x80, 0), 32u);
    EXPECT_EQ(st.loadWord(0x80), 0u);
    // Next word untouched (at most one aligned word per update).
    EXPECT_EQ(st.loadWord(0x84), 0xffffffffu);
}

TEST_F(SpadFixture, AccessesOnlyTimeAndNeverTouchStorage)
{
    // Requesters r and r + 4 share bank r % 4; each issues one access
    // of every kind at tick 0.  The crossbar must leave every word as
    // it was, and complete each access once, with the round-robin
    // grant order (r, r + 4, r, r + 4, ...) as its conflict cycles.
    constexpr unsigned words = 128, requesters = 8, kinds = 3;
    const SpadOp kind[kinds] = {SpadOp::Read, SpadOp::Write, SpadOp::Rmw};
    auto &st = spad.storage();
    auto pattern = [](unsigned w) { return 0x9e3779b9u * (w + 1); };
    for (unsigned w = 0; w < words; ++w)
        st.storeWord(4 * w, pattern(w));

    int fired[requesters][kinds] = {};
    Cycles conf[requesters][kinds] = {};
    eq.schedule(0, [&] {
        for (unsigned k = 0; k < kinds; ++k) {
            for (unsigned r = 0; r < requesters; ++r) {
                Addr a = 4 * (r % 4) + 16 * (r + requesters * k);
                spad.access(r, a, kind[(r + k) % kinds],
                            [&, r, k](Cycles conflict) {
                                ++fired[r][k];
                                conf[r][k] = conflict;
                            });
            }
        }
    });
    eq.run();

    for (unsigned w = 0; w < words; ++w)
        EXPECT_EQ(st.loadWord(4 * w), pattern(w)) << "word " << w;
    for (unsigned r = 0; r < requesters; ++r) {
        for (unsigned k = 0; k < kinds; ++k) {
            EXPECT_EQ(fired[r][k], 1) << "r=" << r << " k=" << k;
            EXPECT_EQ(conf[r][k], 2 * k + r / 4) << "r=" << r << " k=" << k;
        }
    }
    EXPECT_EQ(spad.readAccesses(), requesters);
    EXPECT_EQ(spad.writeAccesses(), requesters);
    EXPECT_EQ(spad.rmwAccesses(), requesters);
}

TEST_F(SpadFixture, StatsCountAccessesByKind)
{
    eq.schedule(0, [&] {
        spad.access(0, 0x0, SpadOp::Read, nullptr);
        spad.access(0, 0x4, SpadOp::Write, nullptr);
        spad.access(0, 0x8, SpadOp::Rmw, nullptr);
        spad.access(0, 0xc, SpadOp::Rmw, nullptr);
    });
    eq.run();
    EXPECT_EQ(spad.totalAccesses(), 4u);
    EXPECT_EQ(spad.readAccesses(), 1u);
    EXPECT_EQ(spad.writeAccesses(), 1u);
    EXPECT_EQ(spad.rmwAccesses(), 2u);
}

TEST_F(SpadFixture, ConsumedBandwidthMath)
{
    // 4 accesses x 32 bits over 10 cycles @200MHz (50 ns) =
    // 128 bits / 50 ns = 2.56 Gb/s.
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i)
            spad.access(0, static_cast<Addr>(4 * i), SpadOp::Read, nullptr);
    });
    eq.run();
    EXPECT_NEAR(spad.consumedBandwidthGbps(50000), 2.56, 1e-9);
}

TEST(ScratchpadConfig, RejectsBadGeometry)
{
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    EXPECT_THROW(Scratchpad(eq, cpu, 4, 1024, 0), FatalError);
    EXPECT_THROW(Scratchpad(eq, cpu, 4, 1024, 4, 3), FatalError);
}

TEST(ScratchpadRandom, UpdateAccountsForEverySetBitExactlyOnce)
{
    // Property: repeatedly set sequential bits and update from a
    // software commit pointer; every set bit is eventually cleared by
    // exactly one update, and the commit pointer advances monotonically
    // to the total count.  As in the firmware, each step applies the
    // storage op when issued and then waits on one timed RMW access.
    EventQueue eq;
    ClockDomain cpu("cpu", 5000);
    Scratchpad spad(eq, cpu, 4, 4096, 2);
    Rng rng(777);

    constexpr unsigned totalBits = 256; // 8 words
    const Addr base = 0x200;
    unsigned nextToSet = 0;
    unsigned committed = 0;

    std::function<void()> pump = [&] {
        bool did = false;
        // Randomly interleave producer (set) and consumer (update).
        if (nextToSet < totalBits && (committed == nextToSet ||
                                      rng.chance(0.6))) {
            unsigned bit = nextToSet++;
            Addr word = base + 4 * (bit / 32);
            spad.storage().atomicSet(word, bit % 32);
            spad.access(0, word, SpadOp::Rmw, [&](Cycles) { pump(); });
            did = true;
        } else if (committed < nextToSet) {
            Addr word = base + 4 * (committed / 32);
            committed += spad.storage().atomicUpdate(word, committed % 32);
            spad.access(1, word, SpadOp::Rmw, [&](Cycles) { pump(); });
            did = true;
        }
        if (!did && committed < totalBits)
            eq.scheduleIn(5000, pump);
    };
    eq.schedule(0, pump);
    eq.run();
    EXPECT_EQ(committed, totalBits);
    for (unsigned w = 0; w < totalBits / 32; ++w)
        EXPECT_EQ(spad.storage().loadWord(base + 4 * w), 0u);
}
