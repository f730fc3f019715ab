/**
 * @file
 * Unit tests for the region-overlay byte store: span installation,
 * trimming, merging, virtual copies, copy-on-access materialization,
 * and the bounds checks shared by every access path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "mem/overlay.hh"
#include "mem/zero_pages.hh"

using namespace tengig;

namespace {

/** Materialize-free oracle: the byte the store must produce at @p a. */
std::uint8_t
expectedByte(const FrameDesc &d, Addr base, Addr a)
{
    return frameDescByte(d, static_cast<unsigned>(a - base));
}

std::vector<std::uint8_t>
readAll(const OverlayMem &m, Addr addr, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    m.readBytes(addr, out.data(), len);
    return out;
}

} // namespace

TEST(Overlay, WholeFrameSpanRoundTripsThroughByteReads)
{
    OverlayMem m(4096);
    FrameDesc d{3, 7, 1, 128};
    m.putFrame(100, d);
    EXPECT_EQ(m.spanCount(), 1u);
    EXPECT_EQ(m.materializations(), 0u);

    auto bytes = readAll(m, 100, d.totalLen());
    for (Addr a = 0; a < d.totalLen(); ++a)
        ASSERT_EQ(bytes[a], expectedByte(d, 0, a)) << "offset " << a;
    // The read materialized the span: counted once, span gone, and the
    // backing bytes are now authoritative.
    EXPECT_EQ(m.materializations(), 1u);
    EXPECT_EQ(m.spanCount(), 0u);
    EXPECT_EQ(readAll(m, 100, d.totalLen()), bytes);
    EXPECT_EQ(m.materializations(), 1u); // no span left to expand
}

TEST(Overlay, HeaderAndPayloadSpansMergeIntoOneFrame)
{
    // The driver posts a frame as a header span + a payload span of the
    // same descriptor; they must coalesce so viewFrame sees one whole
    // frame.
    OverlayMem m(4096);
    FrameDesc d{9, 4, 0, 256};
    m.putSpan(500, {d, 0, txHeaderBytes});
    m.putSpan(500 + txHeaderBytes, {d, txHeaderBytes, 256});
    EXPECT_EQ(m.spanCount(), 1u);

    auto v = m.viewFrame(500, d.totalLen());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, d);
    EXPECT_EQ(m.materializations(), 0u);
}

TEST(Overlay, TsoHeaderSpanAdoptsFirstSegmentsPayloadDescriptor)
{
    // TSO shape: one header-filler span (identified only by hdrSeed)
    // ahead of per-segment payload descriptors.  The header span
    // merges with the first segment by adopting its identity.
    OverlayMem m(8192);
    std::uint32_t hdr_seed = 77;
    FrameDesc seg0{hdr_seed, 0, 0, 1000};
    FrameDesc seg1{hdr_seed, 1, 0, 1000};
    m.putSpan(0, {FrameDesc{hdr_seed, 0, 0, 1000}, 0, txHeaderBytes});
    m.putSpan(txHeaderBytes, {seg0, txHeaderBytes, 1000});
    m.putSpan(txHeaderBytes + 1000, {seg1, txHeaderBytes, 1000});
    // Header merged into seg0's span; seg1 stays separate (different
    // sequence number).
    EXPECT_EQ(m.spanCount(), 2u);

    auto v = m.viewFrame(0, txHeaderBytes + 1000);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, seg0);
}

TEST(Overlay, ByteWriteTrimsWithoutMaterializing)
{
    OverlayMem m(4096);
    FrameDesc d{1, 2, 0, 128};
    m.putFrame(0, d);

    // Overwrite a window in the middle: the span splits around it and
    // nothing materializes (the new bytes supersede the pattern).
    std::uint8_t junk[8] = {0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe,
                            0xef};
    m.writeBytes(60, junk, sizeof(junk));
    EXPECT_EQ(m.materializations(), 0u);
    EXPECT_EQ(m.spanCount(), 2u);

    auto bytes = readAll(m, 0, d.totalLen());
    for (Addr a = 0; a < d.totalLen(); ++a) {
        std::uint8_t want = (a >= 60 && a < 68)
            ? junk[a - 60] : expectedByte(d, 0, a);
        ASSERT_EQ(bytes[a], want) << "offset " << a;
    }
}

TEST(Overlay, PartialOverlapTrimsKeepsOutsideParts)
{
    OverlayMem m(4096);
    FrameDesc a{1, 0, 0, 64};
    FrameDesc b{2, 1, 0, 64};
    m.putFrame(0, a);                      // [0, 106)
    m.putFrame(50, b);                     // [50, 156) supersedes middle
    EXPECT_EQ(m.spanCount(), 2u);          // head of a + all of b

    auto bytes = readAll(m, 0, 156);
    for (Addr x = 0; x < 50; ++x)
        ASSERT_EQ(bytes[x], expectedByte(a, 0, x));
    for (Addr x = 50; x < 156; ++x)
        ASSERT_EQ(bytes[x], expectedByte(b, 50, x));
}

TEST(Overlay, CopyFromMovesSpansWithoutExpansion)
{
    OverlayMem src(4096), dst(4096);
    FrameDesc d{5, 9, 2, 300};
    src.putFrame(40, d);

    dst.copyFrom(src, 40, 1000, d.totalLen());
    EXPECT_EQ(src.materializations(), 0u);
    EXPECT_EQ(dst.materializations(), 0u);
    auto v = dst.viewFrame(1000, d.totalLen());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, d);

    // Contents are byte-identical to a real copy.
    EXPECT_EQ(readAll(dst, 1000, d.totalLen()),
              readAll(src, 40, d.totalLen()));
}

TEST(Overlay, CopyFromRebasesSubWindowsAndRawStretches)
{
    OverlayMem src(4096), dst(4096);
    FrameDesc d{6, 1, 0, 100};
    std::uint8_t raw[20];
    for (unsigned i = 0; i < 20; ++i)
        raw[i] = static_cast<std::uint8_t>(0x80 + i);
    src.putFrame(0, d);              // [0, 142) virtual
    src.writeBytes(142, raw, 20);    // [142, 162) real bytes

    // Copy a window that starts inside the span and ends in the raw
    // stretch: the span part moves rebased, the raw part memcpys.
    dst.copyFrom(src, 30, 500, 120); // src [30, 150)
    EXPECT_EQ(src.materializations(), 0u);
    EXPECT_EQ(dst.materializations(), 0u);
    EXPECT_EQ(dst.spanCount(), 1u);

    auto got = readAll(dst, 500, 120);
    auto want = readAll(src, 30, 120); // materializes src now
    EXPECT_EQ(got, want);
}

TEST(Overlay, ViewFrameMissesOnPartialCoverageOrDirtyOverlap)
{
    OverlayMem m(4096);
    FrameDesc d{2, 3, 0, 128};
    m.putFrame(0, d);

    EXPECT_FALSE(m.viewFrame(0, d.totalLen() - 1)); // length mismatch
    EXPECT_FALSE(m.viewFrame(1, d.totalLen()));     // base mismatch

    // A byte write inside the frame kills the whole-frame view.
    std::uint8_t x = 0;
    m.writeBytes(10, &x, 1);
    EXPECT_FALSE(m.viewFrame(0, d.totalLen()));
}

TEST(Overlay, MaterializationCountsSpansNotBytes)
{
    OverlayMem m(8192);
    FrameDesc a{1, 0, 0, 64};
    FrameDesc b{1, 1, 0, 64};
    m.putFrame(0, a);
    m.putFrame(2000, b);

    // One read overlapping only the first span expands only it.
    std::uint8_t tmp[4];
    m.readBytes(50, tmp, 4);
    EXPECT_EQ(m.materializations(), 1u);
    EXPECT_EQ(m.spanCount(), 1u);

    m.readBytes(2000, tmp, 4);
    EXPECT_EQ(m.materializations(), 2u);
    EXPECT_EQ(m.spanCount(), 0u);
}

TEST(Overlay, BoundsChecksRejectOverflowingRanges)
{
    OverlayMem m(1024);
    std::uint8_t tmp[16] = {};

    EXPECT_THROW(m.readBytes(1024, tmp, 1), PanicError);
    EXPECT_THROW(m.writeBytes(1020, tmp, 8), PanicError);
    // Overflow-safe: addr + len wrapping must not pass the check.
    EXPECT_THROW(m.readBytes(~static_cast<Addr>(0), tmp, 2), PanicError);
    EXPECT_THROW(
        m.putFrame(1000, FrameDesc{0, 0, 0, 64}), PanicError);
    OverlayMem big(4096);
    EXPECT_THROW(big.copyFrom(m, 0, 4090, 100), PanicError);

    // In-range operations at the exact edge still work.
    m.writeBytes(1016, tmp, 8);
    m.readBytes(1016, tmp, 8);
}

TEST(Overlay, SpanWindowsMustStayInsideTheirFrame)
{
    OverlayMem m(1024);
    FrameDesc d{0, 0, 0, 64};
    EXPECT_THROW(m.putSpan(0, {d, 0, 0}), PanicError); // empty
    EXPECT_THROW(m.putSpan(0, {d, 100, 20}), PanicError); // off+len > frame
}

TEST(Overlay, NodeRecyclingSurvivesHeavyChurn)
{
    // Steady-state shape: the same ring addresses are re-posted with
    // fresh descriptors over and over.  Exercises the map-node cache.
    OverlayMem m(16 * 1024);
    for (std::uint32_t lap = 0; lap < 50; ++lap) {
        for (Addr slot = 0; slot < 8; ++slot) {
            FrameDesc d{lap, lap * 8 + static_cast<std::uint32_t>(slot),
                        0, 256};
            Addr base = slot * 2048;
            m.putSpan(base, {d, 0, txHeaderBytes});
            m.putSpan(base + txHeaderBytes, {d, txHeaderBytes, 256});
            auto v = m.viewFrame(base, d.totalLen());
            ASSERT_TRUE(v.has_value());
            ASSERT_EQ(*v, d);
        }
    }
    EXPECT_EQ(m.spanCount(), 8u);
    EXPECT_EQ(m.materializations(), 0u);

    // Final lap's contents are exact.
    FrameDesc last{49, 49 * 8 + 7, 0, 256};
    auto bytes = readAll(m, 7 * 2048, last.totalLen());
    for (Addr a = 0; a < last.totalLen(); ++a)
        ASSERT_EQ(bytes[a], expectedByte(last, 0, a));
}

// ---------------------------------------------------------------------
// Span-bookkeeping edge cases: copyFrom windows that touch span
// boundaries exactly must never rebase a zero-length sub-window (putSpan
// panics on one), and re-materializing an already-expanded range must
// not double-count `materializations`.
// ---------------------------------------------------------------------

TEST(Overlay, CopyFromWindowTouchingSpanEdgesMakesNoZeroLengthSpans)
{
    OverlayMem src(4096), dst(4096);
    FrameDesc d{4, 2, 0, 100};
    Addr len = d.totalLen();
    std::uint8_t raw[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    src.writeBytes(92, raw, 8);   // raw [92, 100)
    src.putFrame(100, d);         // span [100, 100 + len)
    src.writeBytes(100 + len, raw, 8); // raw beyond the span

    // Window ends exactly where the span begins: pure raw copy, and the
    // span must not contribute a zero-length rebase at the window edge.
    dst.copyFrom(src, 92, 500, 8);
    EXPECT_EQ(dst.spanCount(), 0u);

    // Window starts exactly where the span ends: likewise raw only.
    dst.copyFrom(src, 100 + len, 600, 8);
    EXPECT_EQ(dst.spanCount(), 0u);

    // Window covering the span exactly moves it whole.
    dst.copyFrom(src, 100, 1000, len);
    EXPECT_EQ(dst.spanCount(), 1u);
    auto v = dst.viewFrame(1000, len);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, d);

    // Window clipping one byte off each span edge rebases the interior
    // sub-window only (len - 2 bytes), never a zero-length shred.
    dst.copyFrom(src, 101, 2000, len - 2);
    EXPECT_EQ(dst.spanCount(), 2u);
    EXPECT_EQ(src.materializations(), 0u);
    EXPECT_EQ(dst.materializations(), 0u);

    auto got = readAll(dst, 2000, len - 2);
    auto want = readAll(src, 101, len - 2);
    EXPECT_EQ(got, want);
}

TEST(Overlay, CopyFromZeroLengthIsANoOp)
{
    OverlayMem src(1024), dst(1024);
    FrameDesc d{1, 1, 0, 64};
    src.putFrame(0, d);

    dst.copyFrom(src, 0, 100, 0);
    EXPECT_EQ(dst.spanCount(), 0u);
    EXPECT_EQ(src.spanCount(), 1u);
    EXPECT_EQ(src.materializations(), 0u);
    EXPECT_EQ(dst.materializations(), 0u);
}

TEST(Overlay, RepeatedMaterializeRangeCountsEachSpanOnce)
{
    OverlayMem m(4096);
    FrameDesc d{7, 3, 0, 128};
    m.putFrame(200, d);

    // A partial-range materialization expands the whole span once.
    m.bytesFor(210, 4);
    EXPECT_EQ(m.materializations(), 1u);
    EXPECT_EQ(m.spanCount(), 0u);

    // Re-materializing any part of the now-raw range adds nothing:
    // the counter tracks span expansions, not byte reads.
    m.bytesFor(210, 4);
    m.bytesFor(200, d.totalLen());
    std::uint8_t tmp[4];
    m.readBytes(220, tmp, 4);
    EXPECT_EQ(m.materializations(), 1u);

    // The expanded bytes stay exact across the repeated accesses.
    auto bytes = readAll(m, 200, d.totalLen());
    for (Addr a = 0; a < d.totalLen(); ++a)
        ASSERT_EQ(bytes[a], expectedByte(d, 0, a)) << "offset " << a;
    EXPECT_EQ(m.materializations(), 1u);
}

TEST(ZeroPages, FreshBytesReadZeroAndZeroCapacityMapsNothing)
{
    ZeroPages pages(1 << 20, "test");
    ASSERT_EQ(pages.size(), 1u << 20);
    EXPECT_EQ(pages.data()[0], 0);
    EXPECT_EQ(pages.data()[pages.size() - 1], 0);

    ZeroPages none(0, "test");
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.data(), nullptr);

    OverlayMem m(3 * 4096 + 5);
    EXPECT_EQ(m.size(), 3u * 4096 + 5);
    EXPECT_EQ(readAll(m, m.size() - 1, 1)[0], 0);
}

TEST(ZeroPages, MovedFromBufferReleasesNothing)
{
    // The moved-from owners are destroyed first; had either unmapped
    // the pages it gave away, the reads below would fault.
    ZeroPages kept(0, "test");
    {
        ZeroPages a(1 << 16, "test");
        a.data()[0] = 7;
        a.data()[(1 << 16) - 1] = 9;
        ZeroPages b(std::move(a));
        EXPECT_EQ(a.size(), 0u);
        EXPECT_EQ(a.data(), nullptr);

        ZeroPages c(4096, "test"); // its own pages are released
        c = std::move(b);
        EXPECT_EQ(b.size(), 0u);
        EXPECT_EQ(b.data(), nullptr);
        kept = std::move(c);
    }
    ASSERT_EQ(kept.size(), 1u << 16);
    EXPECT_EQ(kept.data()[0], 7);
    EXPECT_EQ(kept.data()[(1 << 16) - 1], 9);

    // Map and touch fresh pages, which may reuse the released
    // addresses, then check the kept buffer is still intact.
    ZeroPages fresh(1 << 16, "test");
    fresh.data()[0] = 1;
    EXPECT_EQ(kept.data()[0], 7);
}

TEST(ZeroPages, UnmappableSizeIsFatalAndNamesTheStore)
{
    try {
        ZeroPages huge(std::size_t{1} << 60, "test store");
        FAIL() << "a 2^60 B mapping succeeded";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("test store"), std::string::npos) << msg;
        EXPECT_NE(msg.find("1152921504606846976"), std::string::npos)
            << msg;
    }
}
