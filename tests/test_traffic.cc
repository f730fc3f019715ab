/**
 * @file
 * Tests for the flow-level traffic subsystem: deterministic seeding,
 * arrival-process statistics, per-flow ordering validation, trace
 * record/replay round trips, and the end-to-end multi-flow duplex
 * acceptance run with bit-identical replay.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "nic/controller.hh"
#include "traffic/flow.hh"
#include "traffic/flow_sink.hh"
#include "traffic/trace.hh"
#include "traffic/traffic_engine.hh"

using namespace tengig;

namespace {

/** Run @p profile standalone for @p frames frames, recording a trace. */
std::string
generateTrace(const TrafficProfile &profile, std::uint64_t frames)
{
    EventQueue eq;
    std::ostringstream os;
    TraceRecorder rec(os);
    TrafficEngine eng(eq, profile, [](FrameData &&) { return true; });
    eng.record(&rec);
    eng.setFrameLimit(frames);
    eng.start();
    eq.run();
    EXPECT_EQ(eng.framesOffered(), frames);
    return os.str();
}

/** Emission ticks of a single-flow run of @p profile. */
std::vector<Tick>
emissionTicks(const TrafficProfile &profile, std::uint64_t frames)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    TrafficEngine eng(eq, profile, [&](FrameData &&) {
        ticks.push_back(eq.curTick());
        return true;
    });
    eng.setFrameLimit(frames);
    eng.start();
    eq.run();
    return ticks;
}

/** Mean and coefficient of variation of consecutive gaps. */
void
gapStats(const std::vector<Tick> &ticks, double &mean, double &cv)
{
    ASSERT_GE(ticks.size(), 2u);
    std::vector<double> gaps;
    for (std::size_t i = 1; i < ticks.size(); ++i)
        gaps.push_back(static_cast<double>(ticks[i] - ticks[i - 1]));
    double sum = 0.0;
    for (double g : gaps)
        sum += g;
    mean = sum / gaps.size();
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= gaps.size();
    cv = std::sqrt(var) / mean;
}

void
deliverFrame(FlowSink &sink, std::uint32_t flow, std::uint32_t seq,
             unsigned payload_bytes = 256)
{
    FrameData fd = makeFlowFrame(flow, seq, payload_bytes);
    sink.deliver(fd.view());
}

/** A single-stream frame as plain bytes (flow 0, 100 B payload): the
 *  byte path a single-stream run's corrupted frames take. */
std::vector<std::uint8_t>
streamBytes(std::uint32_t seq)
{
    std::vector<std::uint8_t> bytes(txHeaderBytes + 100);
    fillPayload(bytes.data() + txHeaderBytes, 100, seq);
    return bytes;
}

void
deliverStream(FlowSink &sink, std::initializer_list<std::uint32_t> seqs)
{
    for (std::uint32_t seq : seqs) {
        std::vector<std::uint8_t> bytes = streamBytes(seq);
        sink.deliver(bytes.data(), static_cast<unsigned>(bytes.size()));
    }
}

} // namespace

TEST(FlowFrame, RoundTripsFlowAndSequence)
{
    FrameData fd = makeFlowFrame(1234, 567, 300);
    fd.materialize(); // expand the descriptor to exercise the byte path
    std::uint32_t seq = 0, flow = 0;
    ASSERT_TRUE(checkPayload(fd.bytes.data() + txHeaderBytes,
                             static_cast<unsigned>(fd.bytes.size()) -
                                 txHeaderBytes, seq, flow));
    EXPECT_EQ(flow, 1234u);
    EXPECT_EQ(seq, 567u);

    // The flow-0 legacy checker rejects frames from other flows.
    std::uint32_t s2 = 0;
    EXPECT_FALSE(checkPayload(fd.bytes.data() + txHeaderBytes,
                              static_cast<unsigned>(fd.bytes.size()) -
                                  txHeaderBytes, s2));
}

TEST(TrafficEngine, SameSeedProducesIdenticalSchedule)
{
    TrafficProfile p = TrafficProfile::imixPoisson(8, 0.8, 42);
    std::string a = generateTrace(p, 2000);
    std::string b = generateTrace(p, 2000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 8u + 2000u * traceRecordBytes);
}

TEST(TrafficEngine, DifferentSeedProducesDifferentSchedule)
{
    TrafficProfile p = TrafficProfile::imixPoisson(8, 0.8, 42);
    TrafficProfile q = p;
    q.seed = 43;
    EXPECT_NE(generateTrace(p, 2000), generateTrace(q, 2000));
}

TEST(TrafficEngine, SinglePacedFlowMatchesFrameSourcePacing)
{
    // One paced max-size flow at rate 1.0 must reproduce the legacy
    // FrameSource schedule: one frame per 1518-byte wire time.
    TrafficProfile p = TrafficProfile::uniform(
        1, SizeModel::fixed(udpMaxPayloadBytes), ArrivalModel::paced(),
        1.0, 7);
    std::vector<Tick> ticks = emissionTicks(p, 6);
    ASSERT_EQ(ticks.size(), 6u);
    for (std::size_t i = 1; i < ticks.size(); ++i)
        EXPECT_EQ(ticks[i] - ticks[i - 1], wireTimeForFrame(1518));
}

TEST(TrafficEngine, PoissonInterArrivalsMatchExponentialStatistics)
{
    // Low rate so link serialization barely clips the exponential
    // gaps: mean within 5% of 1/rate, coefficient of variation near 1.
    constexpr double rate = 0.1;
    TrafficProfile p = TrafficProfile::uniform(
        1, SizeModel::fixed(90), ArrivalModel::poisson(), rate, 99);
    std::vector<Tick> ticks = emissionTicks(p, 20000);
    double mean = 0.0, cv = 0.0;
    gapStats(ticks, mean, cv);
    double expect_mean = wireTimeForFrame(frameBytesForPayload(90)) / rate;
    EXPECT_NEAR(mean, expect_mean, 0.05 * expect_mean);
    EXPECT_GT(cv, 0.9);
    EXPECT_LT(cv, 1.1);
}

TEST(TrafficEngine, OnOffArrivalsAreBurstierThanPoisson)
{
    constexpr double rate = 0.1;
    TrafficProfile p = TrafficProfile::uniform(
        1, SizeModel::fixed(90), ArrivalModel::onOff(0.25, 32.0), rate,
        99);
    std::vector<Tick> ticks = emissionTicks(p, 20000);
    double mean = 0.0, cv = 0.0;
    gapStats(ticks, mean, cv);
    // Long-run rate is preserved...
    double expect_mean = wireTimeForFrame(frameBytesForPayload(90)) / rate;
    EXPECT_NEAR(mean, expect_mean, 0.10 * expect_mean);
    // ...but the gap distribution is far more variable than Poisson.
    EXPECT_GT(cv, 1.5);
}

TEST(TrafficEngine, NeverOverlapsFramesOnTheWire)
{
    TrafficProfile p = TrafficProfile::imixPoisson(16, 1.0, 5);
    EventQueue eq;
    Tick prev_end = 0;
    TrafficEngine eng(eq, p, [&](FrameData &&fd) {
        EXPECT_GE(eq.curTick(), prev_end);
        prev_end = eq.curTick() + wireTimeForFrame(fd.frameBytes());
        return true;
    });
    eng.setFrameLimit(5000);
    eng.start();
    eq.run();
    EXPECT_EQ(eng.framesOffered(), 5000u);
}

// Regression for the frame-limit boundary: the limit used to be
// checked at departure (emit) time, after link-busy deferral.  A frame
// that arrived before the limit filled but was deferred behind another
// flow's wire occupancy could lose the link to a frame that arrived
// *later*, and then be silently discarded when its deferred emit
// re-checked the limit.  The limit is an admission decision: it must
// be taken in arrival order.
//
// Deterministic construction (all flows paced, fixed 1472 B payload,
// wire time W = 1538 B * 800 ticks/B = 1230400 ticks): weights
// 63:81:108 at offered rate 1.0 give per-flow mean gaps of 4W,
// 28W/9 and 7W/3, and the paced phase stagger (meanGap * (i+1) / n)
// puts the first arrivals at
//
//   flow 0:  4W/3           -> emits, link busy until 4W/3 + W = 7W/3
//   flow 1:  56W/27         -> inside flow 0's occupancy, defers to 7W/3
//   flow 2:  7W/3 (exactly) -> ties with flow 1's deferred emit; the
//            arrival event was scheduled at start(), so it fires first
//
// With a frame limit of 2 the admitted arrivals are flow 0 and flow 1.
// The old departure-time check instead let flow 2 (third to arrive)
// take the second slot and dropped flow 1's deferred frame without a
// trace: per-flow counts 1/0/1 and an emission *during* another
// frame's admission window.  Arrival-order admission gives 1/1/0.
TEST(TrafficEngine, FrameLimitAdmitsInArrivalOrderAcrossDeferral)
{
    constexpr Tick W = 1538 * 800; // wire time of a 1518 B frame
    TrafficProfile p;
    p.offeredRate = 1.0;
    for (double w : {63.0, 81.0, 108.0}) {
        FlowSpec f;
        f.size = SizeModel::fixed(1472);
        f.arrival = ArrivalModel::paced();
        f.weight = w;
        p.flows.push_back(f);
    }

    EventQueue eq;
    std::vector<std::pair<Tick, std::uint32_t>> emits;
    TrafficEngine eng(eq, p, [&](FrameData &&fd) {
        std::uint32_t seq = 0, flow = 0;
        EXPECT_TRUE(peekFrameView(fd.view(), seq, flow));
        emits.emplace_back(eq.curTick(), flow);
        return true;
    });
    eng.setFrameLimit(2);
    eng.start();
    eq.run(); // must drain: no orphaned deferral events

    EXPECT_EQ(eng.framesOffered(), 2u);
    EXPECT_EQ(eng.flow(0).framesOffered.value(), 1u);
    EXPECT_EQ(eng.flow(1).framesOffered.value(), 1u); // was 0 (dropped)
    EXPECT_EQ(eng.flow(2).framesOffered.value(), 0u); // was 1 (usurped)

    ASSERT_EQ(emits.size(), 2u);
    EXPECT_EQ(emits[0].second, 0u);
    EXPECT_EQ(emits[1].second, 1u);
    // Flow 0 departs at its arrival (4W/3); flow 1's deferred frame
    // departs the tick the link frees (7W/3).
    EXPECT_EQ(emits[0].first, Tick{4 * W / 3});
    EXPECT_EQ(emits[1].first, emits[0].first + W);
}

// The limit boundary under heavy contention: admission never
// under-fills (every admitted arrival drains through deferral) and
// never over-fills, and the event queue terminates.
TEST(TrafficEngine, FrameLimitExactUnderContention)
{
    TrafficProfile p = TrafficProfile::imixPoisson(16, 1.0, 77);
    EventQueue eq;
    TrafficEngine eng(eq, p, [](FrameData &&) { return true; });
    eng.setFrameLimit(257);
    eng.start();
    eq.run();
    EXPECT_EQ(eng.framesOffered(), 257u);
    std::uint64_t per_flow = 0;
    for (std::size_t i = 0; i < eng.flowCount(); ++i)
        per_flow += eng.flow(i).framesOffered.value();
    EXPECT_EQ(per_flow, 257u);
}

TEST(TxSchedule, DeterministicAndInProfileBounds)
{
    TrafficProfile p = TrafficProfile::bimodalRequestResponse(
        64, 90, 1472, 0.5, 1.0, 11);
    TxSchedule a(p), b(p);
    bool saw_small = false, saw_large = false;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        auto [flow_a, size_a] = a.frameSpec(i);
        auto [flow_b, size_b] = b.frameSpec(i);
        EXPECT_EQ(flow_a, flow_b);
        EXPECT_EQ(size_a, size_b);
        EXPECT_LT(flow_a, 64u);
        EXPECT_TRUE(size_a == 90u || size_a == 1472u);
        saw_small |= size_a == 90u;
        saw_large |= size_a == 1472u;
    }
    EXPECT_TRUE(saw_small);
    EXPECT_TRUE(saw_large);
}

TEST(FlowSinkTest, InterleavedInOrderFlowsPass)
{
    FlowSink sink(/*lossless=*/true);
    for (std::uint32_t seq = 0; seq < 10; ++seq)
        for (std::uint32_t flow = 0; flow < 4; ++flow)
            deliverFrame(sink, flow, seq);
    EXPECT_EQ(sink.errors(), 0u);
    EXPECT_EQ(sink.flowsSeen(), 4u);
    ASSERT_NE(sink.flow(2), nullptr);
    EXPECT_EQ(sink.flow(2)->frames, 10u);
    EXPECT_EQ(sink.framesReceived(), 40u);
}

TEST(FlowSinkTest, CatchesInjectedReorder)
{
    // Swap two frames within one flow (0, 2, 1, 3): the early 2 is a
    // gap, the late 1 a duplicate/regression, and the resume at 3
    // jumps again from the regressed expectation.  The other flow
    // stays clean.
    FlowSink sink(/*lossless=*/true);
    for (std::uint32_t seq : {0u, 2u, 1u, 3u})
        deliverFrame(sink, 5, seq);
    for (std::uint32_t seq : {0u, 1u, 2u, 3u})
        deliverFrame(sink, 6, seq);
    EXPECT_EQ(sink.gapErrors(), 2u);
    EXPECT_EQ(sink.duplicateErrors(), 1u);
    EXPECT_GE(sink.errors(), 3u);
    ASSERT_NE(sink.flow(5), nullptr);
    EXPECT_EQ(sink.flow(5)->gaps, 2u);
    EXPECT_EQ(sink.flow(5)->duplicates, 1u);
    ASSERT_NE(sink.flow(6), nullptr);
    EXPECT_EQ(sink.flow(6)->gaps, 0u);
    EXPECT_EQ(sink.flow(6)->duplicates, 0u);
}

TEST(FlowSinkTest, LossyContractToleratesGapsButNotDuplicates)
{
    FlowSink sink(/*lossless=*/false);
    for (std::uint32_t seq : {0u, 1u, 4u, 5u}) // 2 and 3 dropped
        deliverFrame(sink, 0, seq);
    EXPECT_EQ(sink.gapErrors(), 1u);
    EXPECT_EQ(sink.errors(), 0u);

    deliverFrame(sink, 0, 5); // replayed duplicate
    EXPECT_EQ(sink.duplicateErrors(), 1u);
    EXPECT_EQ(sink.errors(), 1u);

    // Receive-side single stream: frame 1 dropped upstream is a gap,
    // not an error; the late 1 is a regression and is one.
    FlowSink rx(/*lossless=*/false);
    deliverStream(rx, {0, 2});
    EXPECT_EQ(rx.gapErrors(), 1u);
    EXPECT_EQ(rx.errors(), 0u);
    deliverStream(rx, {1});
    EXPECT_EQ(rx.duplicateErrors(), 1u);
    EXPECT_EQ(rx.errors(), 1u);
}

TEST(FlowSinkTest, CatchesCorruptPayload)
{
    FlowSink sink(/*lossless=*/true);
    FrameData fd = makeFlowFrame(3, 0, 256);
    // Byte-level corruption forces materialization: the corrupt frame
    // must travel (and fail validation) as bytes, never as a
    // descriptor.
    fd.materialize();
    fd.bytes[txHeaderBytes + 60] ^= 0x10;
    sink.deliver(fd.view());
    EXPECT_EQ(sink.integrityErrors(), 1u);
    EXPECT_EQ(sink.errors(), 1u);
    // A corrupt frame counts as a frame but carries no payload bytes.
    EXPECT_EQ(sink.framesReceived(), 1u);
    EXPECT_EQ(sink.payloadBytesReceived(), 0u);
}

// The FrameSink cases feed single-stream byte frames -- flow 0, as a
// single-stream run produces them -- to the lossless FlowSink that
// validates every run.

TEST(FrameSink, AcceptsInOrderStream)
{
    FlowSink sink(/*lossless=*/true);
    deliverStream(sink, {0, 1, 2, 3, 4});
    EXPECT_EQ(sink.framesReceived(), 5u);
    EXPECT_EQ(sink.integrityErrors(), 0u);
    EXPECT_EQ(sink.gapErrors(), 0u);
    EXPECT_EQ(sink.duplicateErrors(), 0u);
    EXPECT_EQ(sink.payloadBytesReceived(), 500u);
    EXPECT_EQ(sink.flowsSeen(), 1u);
}

TEST(FrameSink, FlagsOutOfOrder)
{
    FlowSink sink(/*lossless=*/true);
    deliverStream(sink, {0, 2, 1});
    EXPECT_GE(sink.gapErrors() + sink.duplicateErrors(), 1u);
}

TEST(FrameSink, SplitsGapsFromDuplicates)
{
    // 0, 3 (frames 1-2 missing: one gap event), then 1 (a regression).
    FlowSink sink(/*lossless=*/true);
    deliverStream(sink, {0, 3, 1});
    EXPECT_EQ(sink.gapErrors(), 1u);
    EXPECT_EQ(sink.duplicateErrors(), 1u);
    EXPECT_EQ(sink.errors(), 2u);
}

TEST(FrameSink, ExactDuplicateCountsOnlyAsDuplicate)
{
    FlowSink sink(/*lossless=*/true);
    deliverStream(sink, {0, 1, 1, 2});
    EXPECT_EQ(sink.gapErrors(), 0u);
    EXPECT_EQ(sink.duplicateErrors(), 1u);
}

TEST(FrameSink, FlagsCorruptPayload)
{
    FlowSink sink(/*lossless=*/true);
    std::vector<std::uint8_t> bytes = streamBytes(0);
    bytes[90] ^= 1;
    sink.deliver(bytes.data(), static_cast<unsigned>(bytes.size()));
    EXPECT_EQ(sink.integrityErrors(), 1u);
    EXPECT_EQ(sink.payloadBytesReceived(), 0u);
}

TEST(FrameSink, FlagsTruncatedFrame)
{
    // A frame no longer than its header is an integrity error, never a
    // read past the end.
    FlowSink sink(/*lossless=*/true);
    std::vector<std::uint8_t> bytes(40);
    sink.deliver(bytes.data(), 40);
    EXPECT_EQ(sink.integrityErrors(), 1u);
    EXPECT_EQ(sink.payloadBytesReceived(), 0u);
}

TEST(Trace, RecordReplayRoundTripIsBitIdentical)
{
    TrafficProfile p = TrafficProfile::imixPoisson(8, 0.9, 21);
    std::string original = generateTrace(p, 1000);

    // Replay the trace, re-recording it and validating every frame.
    EventQueue eq;
    std::istringstream in(original);
    std::ostringstream out;
    TraceRecorder rerec(out);
    FlowSink sink(/*lossless=*/true);
    TraceReplayer rep(eq, in, [&](FrameData &&fd) {
        sink.deliver(fd.view());
        return true;
    });
    rep.record(&rerec);
    rep.start();
    eq.run();

    EXPECT_EQ(rep.framesOffered(), 1000u);
    EXPECT_EQ(sink.errors(), 0u);
    EXPECT_EQ(out.str(), original);
}

TEST(Trace, ReaderParsesRecordsExactly)
{
    TrafficProfile p = TrafficProfile::uniform(
        2, SizeModel::fixed(100), ArrivalModel::paced(), 0.5, 3);
    std::string bytes = generateTrace(p, 10);
    std::istringstream in(bytes);
    std::vector<TraceRecord> recs = readTrace(in);
    ASSERT_EQ(recs.size(), 10u);
    for (const TraceRecord &r : recs) {
        EXPECT_LT(r.flow, 2u);
        EXPECT_EQ(r.payloadBytes, 100u);
    }
    for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GT(recs[i].tick, recs[i - 1].tick);
}

TEST(Trace, ReaderRejectsBadMagic)
{
    std::istringstream in("NOTATRACE-------");
    EXPECT_THROW(readTrace(in), FatalError);
}

TEST(Trace, ReaderRejectsBackwardTicks)
{
    std::ostringstream os;
    TraceRecorder rec(os);
    rec.record(100, 0, 0, 64);
    rec.record(50, 0, 1, 64);
    std::istringstream in(os.str());
    EXPECT_THROW(readTrace(in), FatalError);
}

TEST(Trace, ReplayRejectsTickOverflow)
{
    std::ostringstream os;
    TraceRecorder rec(os);
    rec.record(maxTick, 0, 0, 64);
    EventQueue eq;
    std::istringstream in(os.str());
    TraceReplayer rep(eq, in, [](FrameData &&) { return true; });
    EXPECT_THROW(rep.start(1), FatalError);
}

/**
 * The PR's acceptance run: a duplex NicController driven by a 64-flow
 * bimodal 90/1472 profile in both directions completes with zero
 * per-flow ordering/integrity errors, and replaying the recorded
 * receive trace reproduces the offered schedule bit-for-bit.
 */
TEST(NicTraffic, DuplexBimodal64FlowsValidatesAndReplays)
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::bimodalRequestResponse(
        64, 90, 1472, 0.5, 1.0, 1001);
    cfg.rxTraffic = TrafficProfile::bimodalRequestResponse(
        64, 90, 1472, 0.5, 1.0, 2002);

    NicController nic(cfg);
    std::ostringstream trace;
    TraceRecorder rec(trace);
    ASSERT_NE(nic.rxTrafficEngine(), nullptr);
    nic.rxTrafficEngine()->record(&rec);

    NicResults r = nic.run(tickPerMs / 2, 2 * tickPerMs);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.integrityErrors, 0u);
    EXPECT_EQ(r.orderDuplicates, 0u);
    EXPECT_GE(nic.txFlowSink().flowsSeen(), 64u);
    EXPECT_GE(nic.rxFlowSink().flowsSeen(), 64u);
    EXPECT_GE(r.flowsValidated, 128u);
    EXPECT_GT(r.txFrames, 0u);
    EXPECT_GT(r.rxFrames, 0u);
    std::uint64_t offered = nic.frameGenerator().framesOffered();
    EXPECT_EQ(rec.records(), offered);

    // Replay: same config, rx direction driven by the recorded trace.
    NicController nic2(cfg);
    std::istringstream in(trace.str());
    nic2.useRxTrace(in);
    std::ostringstream retrace;
    TraceRecorder rerec(retrace);
    static_cast<TraceReplayer &>(nic2.frameGenerator()).record(&rerec);

    NicResults r2 = nic2.run(tickPerMs / 2, 2 * tickPerMs);
    EXPECT_EQ(r2.errors, 0u);
    EXPECT_EQ(nic2.frameGenerator().framesOffered(), offered);
    EXPECT_EQ(retrace.str(), trace.str());
    EXPECT_EQ(r2.rxFrames, r.rxFrames);
}
