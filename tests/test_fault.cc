/**
 * @file
 * Tests for the deterministic fault-injection subsystem: per-site
 * clocks, storm-window gating, DMA retry policies, doorbell-loss
 * recovery, tx poison skips, the watchdogs, and the end-to-end
 * accounting contract (every injected fault matched by exactly one
 * detection/recovery counter, zero validation errors).
 */

#include <gtest/gtest.h>

#include <numeric>

#include "fault/fault.hh"
#include "fault/watchdog.hh"
#include "nic/controller.hh"
#include "sim/logging.hh"

using namespace tengig;

// ---------------------------------------------------------------------
// FaultClock: deterministic, decorrelated per-site streams.

TEST(FaultClock, SameSeedAndSiteReplaysTheSameSequence)
{
    FaultClock a(0x1234, 7);
    FaultClock b(0x1234, 7);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(a.roll(0.5), b.roll(0.5));
}

TEST(FaultClock, DistinctSitesAreDecorrelated)
{
    FaultClock a(0x1234, 1);
    FaultClock b(0x1234, 2);
    bool differed = false;
    for (int i = 0; i < 256 && !differed; ++i)
        differed = a.roll(0.5) != b.roll(0.5);
    EXPECT_TRUE(differed);
}

TEST(FaultClock, ZeroRateConsumesNoRandomness)
{
    FaultClock a(0x1234, 3);
    FaultClock b(0x1234, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(a.roll(0.0));
    // The streams stayed in lockstep: a's zero-rate rolls were free.
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a.roll(0.5), b.roll(0.5));
}

// ---------------------------------------------------------------------
// FaultInjector: storm gating and wire-fault materialization.

namespace {

FrameData
healthyFrame(unsigned len = 200)
{
    FrameData fd;
    fd.bytes.resize(len, 0x5a);
    return fd;
}

} // namespace

TEST(FaultInjector, StormWindowGatesEverySite)
{
    EventQueue eq;
    FaultPlan plan;
    plan.wireCrcRate = 1.0;
    plan.stormStart = 1000;
    plan.stormEnd = 2000;
    FaultInjector inj(plan, eq);

    bool before = true, during = false, after = true;
    eq.schedule(500, [&] {
        FrameData fd = healthyFrame();
        before = inj.applyWireFault(fd);
        EXPECT_EQ(fd.wireFault, WireFault::None);
    });
    eq.schedule(1500, [&] {
        FrameData fd = healthyFrame();
        during = inj.applyWireFault(fd);
        EXPECT_EQ(fd.wireFault, WireFault::Crc);
    });
    eq.schedule(2500, [&] {
        FrameData fd = healthyFrame();
        after = inj.applyWireFault(fd);
    });
    eq.run();

    EXPECT_FALSE(before);
    EXPECT_TRUE(during);
    EXPECT_FALSE(after);
    EXPECT_EQ(inj.wireCrcInjected(), 1u);
    EXPECT_EQ(inj.totalInjected(), 1u);
}

TEST(FaultInjector, WireFaultClassesAreExclusiveAndCounted)
{
    EventQueue eq;
    FaultPlan plan;
    plan.wireCrcRate = 0.2;
    plan.wireTruncateRate = 0.2;
    plan.wireRuntRate = 0.2;
    FaultInjector inj(plan, eq);

    unsigned corrupted = 0;
    for (int i = 0; i < 300; ++i) {
        FrameData fd = healthyFrame(600);
        if (!inj.applyWireFault(fd)) {
            EXPECT_EQ(fd.size(), 600u);
            EXPECT_EQ(fd.wireFault, WireFault::None);
            continue;
        }
        ++corrupted;
        switch (fd.wireFault) {
          case WireFault::Crc:
            EXPECT_EQ(fd.size(), 600u); // a bit flip keeps the length
            break;
          case WireFault::Truncated:
            EXPECT_GE(fd.size(), ethMinFrameBytes - ethCrcBytes);
            EXPECT_LT(fd.size(), 600u);
            break;
          case WireFault::None: // runt: the length check catches it
            EXPECT_LT(fd.size(), ethMinFrameBytes - ethCrcBytes);
            EXPECT_GE(fd.size(), ethHeaderBytes);
            break;
        }
    }
    EXPECT_EQ(inj.wireCrcInjected() + inj.wireTruncInjected() +
                  inj.wireRuntInjected(),
              corrupted);
    EXPECT_GT(inj.wireCrcInjected(), 0u);
    EXPECT_GT(inj.wireTruncInjected(), 0u);
    EXPECT_GT(inj.wireRuntInjected(), 0u);
}

// ---------------------------------------------------------------------
// DmaAssist fault policies.

namespace {

struct DmaFaultFixture : public ::testing::Test
{
    DmaFaultFixture()
        : cpu("cpu", 5000), bus("membus", 2000),
          spad(eq, cpu, 8, 64 * 1024, 4),
          ram(eq, bus, GddrSdram::Config{}),
          host(1024 * 1024),
          assist(eq, cpu, spad, ram, host, /*spad_req=*/6,
                 /*sdram_req=*/0, /*fifo=*/4)
    {}

    EventQueue eq;
    ClockDomain cpu, bus;
    Scratchpad spad;
    GddrSdram ram;
    HostMemory host;
    DmaAssist assist;
};

} // namespace

TEST_F(DmaFaultFixture, FrameTransferRetriesOnceThenDrops)
{
    FaultPlan plan;
    plan.memFaultRate = 1.0; // every burst completion faults
    FaultInjector inj(plan, eq);
    assist.attachFaults(&inj);

    std::vector<std::uint8_t> payload(256);
    std::iota(payload.begin(), payload.end(), 1);
    host.write(0x1000, payload.data(), payload.size());

    bool done = false, faulted = false;
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::HostToSdram, 0x1000,
                               0x8000, payload.size(), 0,
                               [&] { done = true; },
                               [&] { faulted = true; }});
    });
    eq.run();

    EXPECT_TRUE(done);
    EXPECT_TRUE(faulted);
    EXPECT_EQ(inj.memFaultsInjected(), 2u); // first try + the retry
    EXPECT_EQ(inj.memRetriesTaken(), 1u);
    EXPECT_EQ(inj.memDropsTaken(), 1u);
    EXPECT_EQ(assist.commandsCompleted(), 1u);

    // The destination was never written.
    std::vector<std::uint8_t> out(payload.size());
    ram.readBytes(0x8000, out.data(), out.size());
    EXPECT_NE(out, payload);
}

TEST_F(DmaFaultFixture, MetadataTransferRetriesUntilClean)
{
    FaultPlan plan;
    plan.memFaultRate = 0.5;
    FaultInjector inj(plan, eq);
    assist.attachFaults(&inj);

    std::vector<std::uint32_t> bds(16);
    std::iota(bds.begin(), bds.end(), 100);
    host.write(0x3000, bds.data(), 64);

    bool done = false, faulted = false;
    eq.schedule(0, [&] {
        assist.push(DmaCommand{DmaCommand::Kind::HostToSpad, 0x3000,
                               0x400, 64, 0, [&] { done = true; },
                               [&] { faulted = true; }});
    });
    eq.run();

    EXPECT_TRUE(done);
    // Descriptors are never dropped: retry until clean, intact content.
    EXPECT_FALSE(faulted);
    EXPECT_EQ(inj.memDropsTaken(), 0u);
    EXPECT_EQ(inj.memRetriesTaken(), inj.memFaultsInjected());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(spad.storage().loadWord(0x400 + 4 * i), 100u + i);
}

TEST_F(DmaFaultFixture, FifoFullRejectIsCounted)
{
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i) {
            EXPECT_TRUE(assist.push(DmaCommand{
                DmaCommand::Kind::HostToSdram, 0x1000,
                static_cast<Addr>(0x8000 + 2048 * i), 1518, 0, nullptr,
                nullptr}));
        }
        EXPECT_FALSE(assist.push(DmaCommand{
            DmaCommand::Kind::HostToSdram, 0x1000, 0x8000, 64, 0,
            nullptr, nullptr}));
        EXPECT_EQ(assist.fifoFullRejects(), 1u);
    });
    eq.run();
    EXPECT_EQ(assist.commandsCompleted(), 4u);
}

// ---------------------------------------------------------------------
// Watchdogs.

TEST(Watchdog, CountsOneStallPerEpisode)
{
    EventQueue eq;
    FirmwareWatchdog wd(eq, 1000);
    Tick retire = 0;
    bool busy = true;
    unsigned dumps = 0;
    wd.addCore([&] { return retire; });
    wd.setBusy([&] { return busy; });
    wd.setDump([&] {
        ++dumps;
        return std::string("[test dump]\n");
    });
    wd.arm();

    wd.check(); // no progress since arm(): new stall episode
    EXPECT_EQ(wd.stallsDetected(), 1u);
    EXPECT_EQ(dumps, 1u);
    wd.check(); // still the same episode: not re-counted
    EXPECT_EQ(wd.stallsDetected(), 1u);
    EXPECT_EQ(dumps, 1u);

    retire = 500; // progress clears the episode
    wd.check();
    EXPECT_EQ(wd.stallsDetected(), 1u);
    wd.check(); // stuck again at the new retire tick
    EXPECT_EQ(wd.stallsDetected(), 2u);

    busy = false; // a core with nothing outstanding is never a stall
    wd.check();
    EXPECT_EQ(wd.stallsDetected(), 2u);

    EXPECT_EQ(wd.checksRun(), 5u);
    wd.disarm();
    wd.check(); // disarmed: a no-op
    EXPECT_EQ(wd.checksRun(), 5u);
}

TEST(Watchdog, LivenessMonitorFatalsOnlyOnWedge)
{
    LivenessMonitor lm;
    auto report = [] { return std::string("[pipeline report]"); };
    EXPECT_NO_THROW(lm.check(false, false, report));
    EXPECT_NO_THROW(lm.check(false, true, report));
    EXPECT_NO_THROW(lm.check(true, false, report));
    EXPECT_THROW(lm.check(true, true, report), FatalError);
    EXPECT_EQ(lm.checksRun(), 4u);
}

// ---------------------------------------------------------------------
// End-to-end graceful degradation on the full NIC.

namespace {

NicConfig
faultBase()
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    cfg.scratchpadBanks = 4;
    return cfg;
}

} // namespace

TEST(NicFaults, DisabledPlanLeavesEveryHookAbsent)
{
    NicConfig cfg = faultBase();
    ASSERT_FALSE(cfg.faults.enabled());
    NicController nic(cfg);
    EXPECT_EQ(nic.faultInjector(), nullptr);
    EXPECT_EQ(nic.firmwareWatchdog(), nullptr);
    EXPECT_EQ(nic.statTree().findGroup("fault"), nullptr);
}

TEST(NicFaults, WireStormIsDroppedAtTheMacAndFullyAccounted)
{
    NicConfig cfg = faultBase();
    cfg.faults.wireCrcRate = 0.05;
    cfg.faults.wireTruncateRate = 0.03;
    cfg.faults.wireRuntRate = 0.02;
    NicController nic(cfg);
    NicResults r = nic.runRxOnly(400, 5 * tickPerMs);

    FaultInjector *inj = nic.faultInjector();
    ASSERT_NE(inj, nullptr);
    MacRx &rx = nic.macRxAssist();
    EXPECT_GT(inj->totalInjected(), 0u);
    // Each injected wire-fault class is matched one for one by its
    // MAC drop counter; nothing corrupted reaches the host.
    EXPECT_EQ(inj->wireCrcInjected(), rx.crcDrops());
    EXPECT_EQ(inj->wireTruncInjected(), rx.truncatedDrops());
    EXPECT_EQ(inj->wireRuntInjected(), rx.runtDrops());
    EXPECT_EQ(nic.deviceDriver().rxFramesDelivered() +
                  rx.malformedDrops() + rx.framesDropped(),
              400u);
    EXPECT_EQ(nic.rxFlowSink().integrityErrors(), 0u);
    EXPECT_EQ(nic.rxFlowSink().duplicateErrors(), 0u);
    EXPECT_EQ(r.errors, 0u);

    // The fault subtree is registered on fault-enabled runs.
    EXPECT_EQ(nic.statTree().value("fault.wire.crc_injected"),
              static_cast<double>(inj->wireCrcInjected()));
}

TEST(NicFaults, PoisonedTxFramesSkipWithoutBreakingOrder)
{
    NicConfig cfg = faultBase();
    cfg.faults.txPoisonRate = 0.05;
    NicController nic(cfg);
    nic.runTxOnly(400, 50 * tickPerMs);

    FaultInjector *inj = nic.faultInjector();
    ASSERT_NE(inj, nullptr);
    MacTx &tx = nic.macTxAssist();
    FlowSink &sink = nic.txFlowSink();

    // Every posted frame retires (sent or skipped): the pipeline never
    // stalls on a poisoned slot, and ordering survives around the
    // holes because the skips are announced to the validator.
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 400u);
    EXPECT_GT(tx.framesSkipped(), 0u);
    EXPECT_EQ(sink.framesReceived() + tx.framesSkipped(), 400u);
    EXPECT_EQ(sink.gapErrors(), 0u);
    EXPECT_EQ(sink.duplicateErrors(), 0u);
    EXPECT_EQ(sink.integrityErrors(), 0u);
    EXPECT_EQ(sink.injectedDrops(), tx.framesSkipped());
    EXPECT_EQ(inj->poisonSkipsTaken(), tx.framesSkipped());
    EXPECT_EQ(inj->txFramesPoisoned(), inj->poisonSkipsTaken());
}

TEST(NicFaults, LostDoorbellIsRecoveredByTimeoutRetryWithBackoff)
{
    NicConfig cfg = faultBase();
    // Drop every doorbell during the first 30 us: the initial ring and
    // the first 20 us-timeout retry both vanish, then the doubled
    // (backed-off) retry at 60 us lands after the storm and delivers.
    cfg.faults.doorbellDropRate = 1.0;
    cfg.faults.stormEnd = 30 * tickPerUs;
    NicController nic(cfg);
    nic.runTxOnly(200, 20 * tickPerMs);

    FaultInjector *inj = nic.faultInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_EQ(inj->doorbellsLost(), 2u);
    EXPECT_EQ(inj->doorbellRetriesTaken(), 2u);
    // The second retry backed off to 2x the base timeout; the slack
    // beyond the base (exactly one extra timeout) is accounted.
    EXPECT_EQ(inj->doorbellBackoffTicks(), cfg.faults.doorbellRetryTimeout);
    // And the recovery cost is exported on the fault stat tree.
    EXPECT_DOUBLE_EQ(nic.statTree().value("fault.doorbell.retries"),
                     static_cast<double>(inj->doorbellRetriesTaken()));
    EXPECT_DOUBLE_EQ(nic.statTree().value("fault.doorbell.backoff_ticks"),
                     static_cast<double>(inj->doorbellBackoffTicks()));
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 200u);
    EXPECT_EQ(nic.txFlowSink().framesReceived(), 200u);
    EXPECT_EQ(nic.txFlowSink().gapErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().duplicateErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().integrityErrors(), 0u);
}

TEST(NicFaults, LostDoorbellIsRecoveredByALaterRing)
{
    // Paced posting rings once per frame, well inside the retry
    // timeout.  Doorbell values are monotonic totals, so the next
    // delivered ring carries every frame a lost one announced and
    // cancels its pending retry: losses cost no retry at all.
    NicConfig cfg = faultBase();
    cfg.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.5, 0xdb1);
    cfg.rxTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.5, 0xdb2);
    cfg.txPaceRate = 0.5;
    cfg.faults.doorbellDropRate = 0.05;
    NicController nic(cfg);
    nic.startRun();
    nic.beginMeasurement();
    nic.eventQueue().runUntil(300 * tickPerUs);
    // Stop posting, then drain: every posted frame must be consumed.
    nic.quiesceTx();
    nic.eventQueue().runUntil(600 * tickPerUs);
    NicResults r = nic.endMeasurement();
    nic.stopRun();

    EXPECT_GT(nic.statTree().value("fault.doorbell.lost"), 0.0);
    EXPECT_EQ(nic.statTree().value("fault.doorbell.retries"), 0.0);
    EXPECT_EQ(r.errors, 0u);
    const DeviceDriver &drv = nic.deviceDriver();
    EXPECT_GT(drv.txFramesPosted(), 0u);
    EXPECT_EQ(drv.txFramesConsumed(), drv.txFramesPosted());
    EXPECT_EQ(nic.txFlowSink().framesReceived(), drv.txFramesPosted());
    EXPECT_EQ(nic.txFlowSink().gapErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().duplicateErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().integrityErrors(), 0u);
}

TEST(NicFaults, TransientMemoryFaultsDegradeWithoutCorruption)
{
    NicConfig cfg = faultBase();
    cfg.faults.memFaultRate = 0.002;
    NicController nic(cfg);
    NicResults r = nic.run(200 * tickPerUs, 500 * tickPerUs);

    FaultInjector *inj = nic.faultInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(inj->memFaultsInjected(), 0u);
    // Every injected fault became either a retry or a drop...
    EXPECT_EQ(inj->memFaultsInjected(),
              inj->memRetriesTaken() + inj->memDropsTaken());
    // ...and no partially-transferred frame was ever shipped.
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.integrityErrors, 0u);
}

TEST(NicFaults, WatchdogStaysQuietOnAHealthyRun)
{
    NicConfig cfg = faultBase();
    cfg.faults.watchdogCycles = 20000; // 100 us at 200 MHz
    NicController nic(cfg);
    nic.runTxOnly(200, 20 * tickPerMs);

    FirmwareWatchdog *wd = nic.firmwareWatchdog();
    ASSERT_NE(wd, nullptr);
    EXPECT_GT(wd->checksRun(), 0u);
    EXPECT_EQ(wd->stallsDetected(), 0u);
    EXPECT_EQ(nic.txFlowSink().framesReceived(), 200u);
    EXPECT_EQ(nic.statTree().value("fault.watchdog.stalls"), 0.0);
}
