/**
 * @file
 * Unit tests for the paced frame source.  Frame validation is tested
 * with FlowSink (test_traffic.cc).
 */

#include <gtest/gtest.h>

#include "net/endpoints.hh"

using namespace tengig;

TEST(FrameSource, PacesAtLineRate)
{
    EventQueue eq;
    std::vector<Tick> arrivals;
    FrameSource src(eq, 1472, 1.0, [&](FrameData &&fd) {
        arrivals.push_back(eq.curTick());
        EXPECT_EQ(fd.size(), 1514u); // 1518 minus CRC
        return true;
    });
    src.setFrameLimit(5);
    src.start();
    eq.run();
    ASSERT_EQ(arrivals.size(), 5u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i] - arrivals[i - 1], wireTimeForFrame(1518));
}

TEST(FrameSource, HalfRateDoublesSpacing)
{
    EventQueue eq;
    std::vector<Tick> arrivals;
    FrameSource src(eq, 1472, 0.5, [&](FrameData &&) {
        arrivals.push_back(eq.curTick());
        return true;
    });
    src.setFrameLimit(3);
    src.start();
    eq.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[1] - arrivals[0], 2 * wireTimeForFrame(1518));
}

TEST(FrameSource, CountsDrops)
{
    EventQueue eq;
    int n = 0;
    FrameSource src(eq, 100, 1.0, [&](FrameData &&) {
        return (++n % 2) == 0; // drop every other frame
    });
    src.setFrameLimit(10);
    src.start();
    eq.run();
    EXPECT_EQ(src.framesOffered(), 10u);
    EXPECT_EQ(src.framesDropped(), 5u);
}

TEST(FrameSource, InvalidRateIsFatal)
{
    EventQueue eq;
    EXPECT_THROW(FrameSource(eq, 100, 0.0, nullptr), FatalError);
    EXPECT_THROW(FrameSource(eq, 100, 1.5, nullptr), FatalError);
}

TEST(FrameSource, PayloadsValidateAtTheSink)
{
    EventQueue eq;
    std::vector<FrameData> frames;
    FrameSource src(eq, 500, 1.0, [&](FrameData &&fd) {
        frames.push_back(std::move(fd));
        return true;
    });
    src.setFrameLimit(4);
    src.start();
    eq.run();
    ASSERT_EQ(frames.size(), 4u);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        // Source frames are descriptor-backed; expanding them must
        // yield payloads that validate byte-for-byte.
        frames[i].materialize();
        std::uint32_t seq = 0;
        ASSERT_TRUE(checkPayload(frames[i].bytes.data() + txHeaderBytes,
                                 static_cast<unsigned>(
                                     frames[i].bytes.size()) -
                                     txHeaderBytes, seq));
        EXPECT_EQ(seq, i);
    }
}
