/**
 * @file
 * Unit tests for the host device-driver model: descriptor rings,
 * doorbells, replenishment, and the receive-delivery hook (validated
 * here by the same lossy FlowSink the NIC controller attaches).
 */

#include <gtest/gtest.h>

#include "host/driver.hh"
#include "traffic/flow_sink.hh"

using namespace tengig;

namespace {

struct DriverFixture : public ::testing::Test
{
    DriverFixture() : host(16 * 1024 * 1024)
    {
        cfg.sendRingFrames = 8;
        cfg.recvPoolBuffers = 16;
        cfg.recvPostBatch = 4;
        cfg.txPayloadBytes = 256;
    }

    HostMemory host;
    DeviceDriver::Config cfg;
};

BufferDesc
readBd(HostMemory &host, Addr ring, unsigned idx)
{
    BufferDesc bd;
    host.read(ring + idx * BufferDesc::bytes, &bd, sizeof(bd));
    return bd;
}

} // namespace

TEST_F(DriverFixture, PostSendFramesWritesTwoBdsPerFrame)
{
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onSendDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.postSendFrames(3);
    EXPECT_EQ(drv.txFramesPosted(), 3u);
    EXPECT_EQ(doorbell, 6u);

    for (unsigned f = 0; f < 3; ++f) {
        BufferDesc hdr = readBd(host, drv.sendBdRingBase(), 2 * f);
        BufferDesc pay = readBd(host, drv.sendBdRingBase(), 2 * f + 1);
        EXPECT_EQ(hdr.len, txHeaderBytes);
        EXPECT_TRUE(hdr.flags & BufferDesc::flagFirst);
        EXPECT_EQ(pay.len, 256u);
        EXPECT_TRUE(pay.flags & BufferDesc::flagLast);
        EXPECT_EQ(pay.hostAddr, hdr.hostAddr + txHeaderBytes);

        // Payload is validatable and carries the frame sequence
        // (bytesFor materializes the posted pattern span).
        std::uint32_t seq = 0;
        EXPECT_TRUE(checkPayload(host.bytesFor(pay.hostAddr, pay.len),
                                 pay.len, seq));
        EXPECT_EQ(seq, f);
    }
}

TEST_F(DriverFixture, SendRingOverflowIsFatal)
{
    DeviceDriver drv(host, cfg);
    drv.postSendFrames(8);
    EXPECT_THROW(drv.postSendFrames(1), FatalError);
}

TEST_F(DriverFixture, BackloggedModeRefillsOnConsumption)
{
    DeviceDriver drv(host, cfg);
    drv.startBackloggedSend();
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    drv.txConsumedUpTo(5);
    EXPECT_EQ(drv.txFramesConsumed(), 5u);
    EXPECT_EQ(drv.txFramesPosted(), 13u); // refilled to ring capacity
}

TEST_F(DriverFixture, StaleConsumptionUpdatesIgnored)
{
    DeviceDriver drv(host, cfg);
    drv.postSendFrames(6);
    drv.txConsumedUpTo(4);
    drv.txConsumedUpTo(2); // stale writeback, must be ignored
    EXPECT_EQ(drv.txFramesConsumed(), 4u);
    EXPECT_THROW(drv.txConsumedUpTo(7), PanicError); // never posted
}

TEST_F(DriverFixture, PrimeReceivePoolPostsAllBuffers)
{
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onRecvDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.primeReceivePool();
    EXPECT_EQ(drv.recvBdsPosted(), 16u);
    EXPECT_EQ(doorbell, 16u);
    BufferDesc bd = readBd(host, drv.recvBdRingBase(), 0);
    EXPECT_EQ(bd.len, ethMaxFrameBytes);
    EXPECT_NE(bd.hostAddr, 0u);
}

TEST_F(DriverFixture, RxCompletionValidatesAndReplenishes)
{
    DeviceDriver drv(host, cfg);
    FlowSink sink(/*lossless=*/false);
    std::uint64_t hooked = 0;
    drv.onRxDeliver([&](const FrameView &v) {
        ++hooked;
        sink.deliver(v);
    });
    drv.primeReceivePool();
    ASSERT_EQ(drv.recvBdsPosted(), 16u);

    // Simulate the NIC writing valid frames into the first buffers.
    auto complete = [&](std::uint32_t seq) {
        BufferDesc bd = readBd(host, drv.recvBdRingBase(), seq % 16);
        std::vector<std::uint8_t> frame(txHeaderBytes + 300);
        fillPayload(frame.data() + txHeaderBytes, 300, seq);
        host.write(bd.hostAddr, frame.data(), frame.size());
        drv.rxCompletion(bd.hostAddr,
                         static_cast<std::uint32_t>(frame.size()));
    };
    complete(0);
    EXPECT_EQ(drv.rxFramesDelivered(), 1u);
    EXPECT_EQ(hooked, 1u);
    EXPECT_EQ(sink.integrityErrors(), 0u);
    EXPECT_EQ(sink.duplicateErrors(), 0u);
    EXPECT_EQ(sink.payloadBytesReceived(), 300u);
    EXPECT_EQ(drv.recvBdsPosted(), 16u); // below one batch returned

    // A zero-length (fault-abandoned) completion recycles its buffer
    // but never reaches the hook.
    BufferDesc bd = readBd(host, drv.recvBdRingBase(), 1);
    drv.rxCompletion(bd.hostAddr, 0);
    EXPECT_EQ(drv.rxFaultDropCount(), 1u);
    EXPECT_EQ(hooked, 1u);

    // Four buffers returned = one batch: the pool is topped back up.
    complete(2);
    complete(3);
    EXPECT_EQ(drv.rxFramesDelivered(), 3u);
    EXPECT_EQ(hooked, 3u);
    EXPECT_EQ(sink.framesReceived(), 3u);
    EXPECT_EQ(drv.recvBdsPosted(), 20u);
    EXPECT_EQ(sink.errors(), 0u);
}

TEST_F(DriverFixture, RxCompletionFlagsBadPayload)
{
    DeviceDriver drv(host, cfg);
    FlowSink sink(/*lossless=*/false);
    std::uint64_t hooked = 0;
    drv.onRxDeliver([&](const FrameView &v) {
        ++hooked;
        EXPECT_EQ(v.desc, nullptr) << "garbage bytes must not pose as "
                                      "a clean descriptor";
        sink.deliver(v);
    });
    drv.primeReceivePool();
    BufferDesc bd = readBd(host, drv.recvBdRingBase(), 0);
    drv.rxCompletion(bd.hostAddr, 200); // garbage contents
    EXPECT_EQ(hooked, 1u);
    EXPECT_EQ(sink.integrityErrors(), 1u);
}

TEST_F(DriverFixture, RxGapFromDropIsNotAnOrderError)
{
    DeviceDriver drv(host, cfg);
    FlowSink sink(/*lossless=*/false);
    drv.onRxDeliver([&](const FrameView &v) { sink.deliver(v); });
    drv.primeReceivePool();
    auto deliver = [&](std::uint32_t seq) {
        BufferDesc bd = readBd(host, drv.recvBdRingBase(), seq % 16);
        std::vector<std::uint8_t> frame(txHeaderBytes + 64);
        fillPayload(frame.data() + txHeaderBytes, 64, seq);
        host.write(bd.hostAddr, frame.data(), frame.size());
        drv.rxCompletion(bd.hostAddr,
                         static_cast<std::uint32_t>(frame.size()));
    };
    deliver(0);
    deliver(2); // gap (frame 1 dropped upstream): allowed
    EXPECT_EQ(sink.duplicateErrors(), 0u);
    EXPECT_EQ(sink.gapErrors(), 1u);
    EXPECT_EQ(sink.errors(), 0u);
    deliver(1); // regression: must be flagged
    EXPECT_EQ(sink.duplicateErrors(), 1u);
}

TEST_F(DriverFixture, InvalidPayloadSizeIsFatal)
{
    cfg.txPayloadBytes = 4;
    EXPECT_THROW(DeviceDriver(host, cfg), FatalError);
    cfg.txPayloadBytes = 5000;
    EXPECT_THROW(DeviceDriver(host, cfg), FatalError);
}

TEST_F(DriverFixture, TsoPostsOnePairPerGroup)
{
    cfg.tsoSegments = 4;
    cfg.txPayloadBytes = 1000;
    DeviceDriver drv(host, cfg);
    std::uint64_t doorbell = 0;
    drv.onSendDoorbell([&](std::uint64_t bds) { doorbell = bds; });
    drv.postSendFrames(8); // two groups
    EXPECT_EQ(drv.txFramesPosted(), 8u);
    EXPECT_EQ(doorbell, 4u); // 2 BDs per group

    BufferDesc pay = readBd(host, drv.sendBdRingBase(), 1);
    EXPECT_TRUE(pay.flags & BufferDesc::flagTso);
    EXPECT_EQ((pay.flags >> BufferDesc::segmentShift) & 0xff, 4u);
    EXPECT_EQ(pay.len, 4000u);

    // Every segment's payload validates with consecutive sequences.
    for (unsigned s = 0; s < 4; ++s) {
        std::uint32_t seq = 0;
        EXPECT_TRUE(checkPayload(
            host.bytesFor(pay.hostAddr + s * 1000, 1000), 1000, seq));
        EXPECT_EQ(seq, s);
    }
}

TEST_F(DriverFixture, TsoRejectsPartialGroups)
{
    cfg.tsoSegments = 4;
    DeviceDriver drv(host, cfg);
    EXPECT_THROW(drv.postSendFrames(3), FatalError);
    cfg.tsoSegments = 3; // does not divide the ring
    EXPECT_THROW(DeviceDriver(host, cfg), FatalError);
}
