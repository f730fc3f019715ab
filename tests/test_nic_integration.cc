/**
 * @file
 * End-to-end integration tests: full NIC + host + network, checking
 * delivery, ordering, payload integrity and throughput sanity across
 * configurations.
 */

#include <gtest/gtest.h>

#include "nic/controller.hh"

using namespace tengig;

namespace {

NicConfig
baseConfig()
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 200.0;
    cfg.scratchpadBanks = 4;
    return cfg;
}

} // namespace

TEST(NicTxPath, DeliversAllFramesInOrderWithIntactPayloads)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    nic.runTxOnly(500, 20 * tickPerMs);

    EXPECT_EQ(nic.txFlowSink().framesReceived(), 500u);
    EXPECT_EQ(nic.txFlowSink().integrityErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().gapErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().duplicateErrors(), 0u);
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 500u);
}

TEST(NicRxPath, DeliversAllFramesInOrderWithIntactPayloads)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    nic.runRxOnly(500, 20 * tickPerMs);

    EXPECT_EQ(nic.deviceDriver().rxFramesDelivered(), 500u);
    EXPECT_EQ(nic.rxFlowSink().integrityErrors(), 0u);
    EXPECT_EQ(nic.rxFlowSink().duplicateErrors(), 0u);
}

TEST(NicDuplex, SixCores200MhzReachesNearLineRate)
{
    NicConfig cfg = baseConfig();
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);

    EXPECT_EQ(r.errors, 0u);
    // Line rate for 1472 B UDP duplex is 2 x 9.57 = 19.14 Gb/s; the
    // paper's 6x200 MHz software-only configuration reaches it.
    EXPECT_GT(r.totalUdpGbps, 18.0);
    EXPECT_LE(r.totalUdpGbps, 19.2);

    // The zero-copy contract (DESIGN.md §11): on a clean steady-state
    // workload every frame crosses the data path as a descriptor and
    // nothing ever expands a pattern span into bytes.
    EXPECT_EQ(nic.hostMemory().store().materializations(), 0u);
    EXPECT_EQ(nic.sdram().store().materializations(), 0u);
    EXPECT_GT(nic.sdram().chainedBursts(), 0u);
}

TEST(NicDuplex, RmwEnhancedAt166MhzReachesNearLineRate)
{
    NicConfig cfg = baseConfig();
    cfg.cpuMhz = 166.0;
    cfg.firmware.rmwEnhanced = true;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);

    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.totalUdpGbps, 18.0);
}

TEST(NicDuplex, SingleCoreIsComputeBound)
{
    NicConfig cfg = baseConfig();
    cfg.cores = 1;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);

    EXPECT_EQ(r.errors, 0u);
    EXPECT_LT(r.totalUdpGbps, 10.0); // far from 19.1 duplex line rate
    EXPECT_GT(r.totalUdpGbps, 0.5);  // but it does make progress
}

TEST(NicReport, FlatStatsCoverEveryComponent)
{
    NicConfig cfg = baseConfig();
    cfg.cores = 2;
    NicController nic(cfg);
    nic.runTxOnly(100, 20 * tickPerMs);
    const obs::StatGroup &t = nic.statTree();
    EXPECT_TRUE(t.has("core0.instructions"));
    EXPECT_TRUE(t.has("core1.ipc"));
    EXPECT_TRUE(t.has("fw.Send_Frame.instructions"));
    EXPECT_TRUE(t.has("spad.accesses"));
    EXPECT_TRUE(t.has("sdram.usefulBytes"));
    EXPECT_DOUBLE_EQ(t.value("link.txFrames"), 100.0);
    EXPECT_DOUBLE_EQ(t.value("check.orderErrors"), 0.0);
    EXPECT_DOUBLE_EQ(t.value("check.integrityErrors"), 0.0);
    EXPECT_GT(t.value("fw.lock0.acquires"), 0.0);
    EXPECT_GT(t.toJson().dump(2).size(), 500u);
}
