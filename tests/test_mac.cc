/**
 * @file
 * Unit tests for the MAC transmit/receive assists.
 */

#include <gtest/gtest.h>

#include "assist/mac.hh"
#include "traffic/flow_sink.hh"

using namespace tengig;

namespace {

struct MacFixture : public ::testing::Test
{
    MacFixture()
        : cpu("cpu", 5000), bus("membus", 2000),
          ram(eq, bus, GddrSdram::Config{})
    {}

    /** Write a validatable frame image into SDRAM. */
    unsigned
    stageFrame(Addr addr, unsigned payload, std::uint32_t seq)
    {
        std::vector<std::uint8_t> bytes(txHeaderBytes + payload);
        for (unsigned i = 0; i < txHeaderBytes; ++i)
            bytes[i] = static_cast<std::uint8_t>(i);
        fillPayload(bytes.data() + txHeaderBytes, payload, seq);
        ram.writeBytes(addr, bytes.data(), bytes.size());
        return static_cast<unsigned>(bytes.size());
    }

    EventQueue eq;
    ClockDomain cpu, bus;
    GddrSdram ram;
    FlowSink sink;
    /** Wire-side consumer: every transmitted frame goes to the sink. */
    MacTx::Deliver toSink{[this](const FrameView &v) { sink.deliver(v); }};
};

} // namespace

TEST_F(MacFixture, TransmitsFramesInOrderWithWirePacing)
{
    MacTx tx(eq, cpu, ram, toSink, /*sdram_req=*/2);
    std::vector<Tick> done;
    eq.schedule(0, [&] {
        for (std::uint32_t s = 0; s < 4; ++s) {
            unsigned len = stageFrame(0x1000 + s * 2048, 1472, s);
            tx.push(MacTx::Command{0x1000 + s * 2048, len,
                                   [&] { done.push_back(eq.curTick()); }});
        }
    });
    eq.run();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(sink.framesReceived(), 4u);
    EXPECT_EQ(sink.integrityErrors(), 0u);
    EXPECT_EQ(sink.gapErrors(), 0u);
    EXPECT_EQ(sink.duplicateErrors(), 0u);
    // Wire pacing: successive max-size frames are >= one wire time
    // apart.
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_GE(done[i] - done[i - 1], wireTimeForFrame(1518));
    EXPECT_EQ(tx.framesSent(), 4u);
}

TEST_F(MacFixture, MinimumFramePaddingOnTheWire)
{
    MacTx tx(eq, cpu, ram, toSink, 2);
    eq.schedule(0, [&] {
        unsigned len = stageFrame(0x1000, 18, 0); // 60B + CRC = 64B min
        tx.push(MacTx::Command{0x1000, len, nullptr});
    });
    eq.run();
    EXPECT_EQ(tx.wireBytesSent(), wireBytesForFrame(64));
}

TEST_F(MacFixture, TxFifoBackpressure)
{
    MacTx tx(eq, cpu, ram, toSink, 2, /*fifo=*/2);
    eq.schedule(0, [&] {
        unsigned len = stageFrame(0x1000, 1472, 0);
        // Two fetch slots drain immediately into the double buffer, so
        // the FIFO accepts a few more before filling.
        int accepted = 0;
        for (int i = 0; i < 8; ++i) {
            if (tx.push(MacTx::Command{0x1000, len, nullptr}))
                ++accepted;
        }
        EXPECT_LT(accepted, 8);
        EXPECT_GE(accepted, 2);
    });
    eq.run();
}

TEST_F(MacFixture, ReceiveStoresFrameAndReportsDescriptor)
{
    std::vector<MacRx::StoredFrame> stored;
    Addr next_slot = 0x10000;
    MacRx rx(eq, cpu, ram, 3,
             [&](unsigned) -> std::optional<Addr> {
                 Addr a = next_slot;
                 next_slot += 1536;
                 return a;
             },
             [&](const MacRx::StoredFrame &sf) { stored.push_back(sf); });

    FrameData fd;
    fd.bytes.resize(1514);
    for (unsigned i = 0; i < txHeaderBytes; ++i)
        fd.bytes[i] = static_cast<std::uint8_t>(i);
    fillPayload(fd.bytes.data() + txHeaderBytes, 1472, 77);

    eq.schedule(0, [&] { EXPECT_TRUE(rx.frameArrived(std::move(fd))); });
    eq.run();
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0].sdramAddr, 0x10000u);
    EXPECT_EQ(stored[0].lenBytes, 1514u);
    // Contents intact in SDRAM.
    std::vector<std::uint8_t> out(1472);
    ram.readBytes(0x10000 + txHeaderBytes, out.data(), out.size());
    std::uint32_t seq = 0;
    EXPECT_TRUE(checkPayload(out.data(), 1472, seq));
    EXPECT_EQ(seq, 77u);
}

TEST_F(MacFixture, ReceiveDropsWhenNoSlot)
{
    MacRx rx(eq, cpu, ram, 3,
             [](unsigned) -> std::optional<Addr> { return std::nullopt; },
             [](const MacRx::StoredFrame &) {});
    FrameData fd;
    fd.bytes.resize(100);
    eq.schedule(0, [&] { EXPECT_FALSE(rx.frameArrived(std::move(fd))); });
    eq.run();
    EXPECT_EQ(rx.framesDropped(), 1u);
    EXPECT_EQ(rx.framesStored(), 0u);
}

TEST_F(MacFixture, ReceiveDropsMalformedFramesBeforeBuffering)
{
    // Length/CRC validation runs ahead of any buffer or ring check:
    // each malformed class is dropped with its own counter and never
    // reaches the stored-frame callback (and so never the firmware).
    std::vector<MacRx::StoredFrame> stored;
    Addr next_slot = 0x10000;
    MacRx rx(eq, cpu, ram, 3,
             [&](unsigned) -> std::optional<Addr> {
                 Addr a = next_slot;
                 next_slot += 1536;
                 return a;
             },
             [&](const MacRx::StoredFrame &sf) { stored.push_back(sf); });

    eq.schedule(0, [&] {
        FrameData runt;
        runt.bytes.resize(40); // below the 60 B minimum (sans CRC)
        EXPECT_FALSE(rx.frameArrived(std::move(runt)));

        FrameData oversize;
        oversize.bytes.resize(1600); // above the 1514 B maximum
        EXPECT_FALSE(rx.frameArrived(std::move(oversize)));

        FrameData bad_crc;
        bad_crc.bytes.resize(1514);
        bad_crc.wireFault = WireFault::Crc;
        EXPECT_FALSE(rx.frameArrived(std::move(bad_crc)));

        FrameData truncated;
        truncated.bytes.resize(200); // legal length, cut short on wire
        truncated.wireFault = WireFault::Truncated;
        EXPECT_FALSE(rx.frameArrived(std::move(truncated)));
    });
    eq.run();

    EXPECT_EQ(rx.runtDrops(), 1u);
    EXPECT_EQ(rx.oversizeDrops(), 1u);
    EXPECT_EQ(rx.crcDrops(), 1u);
    EXPECT_EQ(rx.truncatedDrops(), 1u);
    EXPECT_EQ(rx.malformedDrops(), 4u);
    EXPECT_EQ(rx.framesDropped(), 0u); // overload drops stay separate
    EXPECT_EQ(rx.framesStored(), 0u);
    EXPECT_TRUE(stored.empty());
}

TEST_F(MacFixture, ReceiveAcceptsHealthyFrameAfterMalformedBurst)
{
    // A malformed drop leaves no residue: the very next clean frame
    // takes the normal store path.
    std::vector<MacRx::StoredFrame> stored;
    MacRx rx(eq, cpu, ram, 3,
             [](unsigned) -> std::optional<Addr> { return 0x10000; },
             [&](const MacRx::StoredFrame &sf) { stored.push_back(sf); });
    eq.schedule(0, [&] {
        FrameData bad;
        bad.bytes.resize(100);
        bad.wireFault = WireFault::Crc;
        EXPECT_FALSE(rx.frameArrived(std::move(bad)));
        FrameData good;
        good.bytes.resize(100);
        EXPECT_TRUE(rx.frameArrived(std::move(good)));
    });
    eq.run();
    EXPECT_EQ(rx.crcDrops(), 1u);
    EXPECT_EQ(rx.framesStored(), 1u);
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0].lenBytes, 100u);
}

TEST_F(MacFixture, ReceiveDropsWhenBufferBusy)
{
    // More than two frames arriving while SDRAM writes are in flight
    // overflow the double buffer.
    Addr next_slot = 0x10000;
    MacRx rx(eq, cpu, ram, 3,
             [&](unsigned) -> std::optional<Addr> {
                 Addr a = next_slot;
                 next_slot += 1536;
                 return a;
             },
             [](const MacRx::StoredFrame &) {});
    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i) {
            FrameData fd;
            fd.bytes.resize(1514);
            rx.frameArrived(std::move(fd));
        }
    });
    eq.run();
    EXPECT_EQ(rx.framesDropped(), 2u);
    EXPECT_EQ(rx.framesStored(), 2u);
}
