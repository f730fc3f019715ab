/**
 * @file
 * Fleet subsystem tests: the store-and-forward switch model in
 * isolation, FleetConfig validation, and the headline determinism
 * contract -- per-instance results, stat trees, and wire/inject
 * fingerprints are byte-identical whether the fleet runs on 1 thread
 * or N, and an isolated (no-forwarding) fleet node reproduces the
 * standalone NicController bit-for-bit.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "equivalence.hh"
#include "fleet/fleet.hh"
#include "sim/logging.hh"

using namespace tengig;

namespace {

constexpr Tick usT = tickPerUs;

SwitchModelConfig
switchCfg(Tick latency_us, unsigned queue_frames)
{
    SwitchModelConfig c;
    c.fabricLatencyTicks = latency_us * usT;
    c.egressQueueFrames = queue_frames;
    return c;
}

/** Template node: duplex multi-flow traffic below line rate so the
 *  forwarded stream fits on the destination wire most of the time. */
NicConfig
fleetNodeTemplate()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        3, SizeModel::fixed(1472), ArrivalModel::paced(), 0.5, 0x7e57);
    cfg.rxTraffic = TrafficProfile::uniform(
        3, SizeModel::fixed(1472), ArrivalModel::paced(), 0.35, 0x7e58);
    return cfg;
}

FleetConfig
smallFleet(unsigned count, unsigned threads, bool forward)
{
    FleetConfig fc = FleetConfig::uniform(fleetNodeTemplate(), count,
                                          forward);
    fc.threads = threads;
    fc.syncWindowTicks = 10 * usT;
    fc.sw.fabricLatencyTicks = 10 * usT;
    fc.warmupTicks = 150 * usT;
    fc.measureTicks = 300 * usT;
    return fc;
}

/** Attach one Chrome trace per fleet node (before run()). */
std::vector<std::unique_ptr<obs::TraceLog>>
traceEveryNode(FleetRunner &fleet)
{
    std::vector<std::unique_ptr<obs::TraceLog>> logs;
    for (unsigned i = 0; i < fleet.size(); ++i) {
        logs.push_back(std::make_unique<obs::TraceLog>());
        fleet.node(i).attachTrace(*logs.back());
    }
    return logs;
}

} // namespace

// ---------------------------------------------------------------------
// Switch model
// ---------------------------------------------------------------------

TEST(FleetSwitch, UncontendedLatencyIsFabricPlusSerialization)
{
    FleetSwitch sw(switchCfg(5, 0), 2);
    // 1518 B frame: 1538 wire bytes at 800 ps/byte.
    Tick wire = wireTimeForFrame(1518);
    auto a = sw.forward(0, 1, 1000, 1518);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, 1000 + 5 * usT + wire);
    EXPECT_EQ(sw.framesForwarded(), 1u);
    EXPECT_EQ(sw.framesDropped(), 0u);
    EXPECT_EQ(sw.latencyHistogram().count(), 1u);
    EXPECT_EQ(sw.latencyHistogram().maxSample(), 5 * usT + wire);
}

TEST(FleetSwitch, EgressSerializesInOfferOrder)
{
    FleetSwitch sw(switchCfg(5, 0), 4);
    Tick wire = wireTimeForFrame(1518);
    // Three same-tick frames from different sources to one egress
    // port: arrivals are spaced one wire time apart, in offer order.
    auto a0 = sw.forward(0, 3, 0, 1518);
    auto a1 = sw.forward(1, 3, 0, 1518);
    auto a2 = sw.forward(2, 3, 0, 1518);
    ASSERT_TRUE(a0 && a1 && a2);
    EXPECT_EQ(*a1, *a0 + wire);
    EXPECT_EQ(*a2, *a1 + wire);
    EXPECT_EQ(sw.portFramesOut(3), 3u);
    // A later frame to an idle port is unaffected by port 3's queue.
    auto b = sw.forward(0, 1, 0, 1518);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, 5 * usT + wire);
}

TEST(FleetSwitch, DropsOnFullEgressFifoAndRecovers)
{
    FleetSwitch sw(switchCfg(5, 2), 2);
    Tick wire = wireTimeForFrame(1518);
    // Two frames fill the FIFO; the next two at the same tick drop.
    ASSERT_TRUE(sw.forward(0, 1, 0, 1518).has_value());
    ASSERT_TRUE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_FALSE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_FALSE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_EQ(sw.framesForwarded(), 2u);
    EXPECT_EQ(sw.framesDropped(), 2u);
    // Once the first frame has departed the egress wire, a slot frees.
    Tick firstDepart = 5 * usT + wire;
    Tick clear = firstDepart > 5 * usT ? firstDepart - 5 * usT : 0;
    auto c = sw.forward(0, 1, clear + 1, 1518);
    EXPECT_TRUE(c.has_value());
    EXPECT_EQ(sw.framesForwarded(), 3u);
}

TEST(FleetSwitch, RejectsOutOfOrderOffers)
{
    FleetSwitch sw(switchCfg(5, 0), 2);
    ASSERT_TRUE(sw.forward(0, 1, 1000, 1518).has_value());
    EXPECT_THROW(sw.forward(0, 1, 999, 1518), FatalError);
}

TEST(FleetSwitch, RegistersStats)
{
    FleetSwitch sw(switchCfg(5, 0), 2);
    obs::StatGroup g;
    sw.registerStats(g);
    ASSERT_TRUE(sw.forward(0, 1, 0, 1518).has_value());
    EXPECT_EQ(g.counter("forwarded").value(), 1u);
    EXPECT_EQ(g.counter("port1.framesOut").value(), 1u);
    EXPECT_EQ(g.counter("dropped").value(), 0u);
}

// ---------------------------------------------------------------------
// Configuration contracts
// ---------------------------------------------------------------------

TEST(FleetConfigT, UniformAssignsDisjointFlowRangesAndPrivateSeeds)
{
    FleetConfig fc = FleetConfig::uniform(fleetNodeTemplate(), 3, true);
    EXPECT_EQ(fc.nodes.size(), 3u);
    EXPECT_EQ(fc.topology, FleetTopology::Ring);
    std::uint32_t expect = 0;
    for (const NicConfig &n : fc.nodes) {
        EXPECT_TRUE(n.externalWire);
        EXPECT_EQ(n.txTraffic.flowIdBase, expect);
        expect += 3;
        EXPECT_EQ(n.rxTraffic.flowIdBase, expect);
        expect += 3;
    }
    EXPECT_NE(fc.nodes[0].txTraffic.seed, fc.nodes[1].txTraffic.seed);
    EXPECT_NE(fc.nodes[0].txTraffic.seed, fc.nodes[0].rxTraffic.seed);
    fc.validate(); // must not throw
}

TEST(FleetConfigT, ValidateEnforcesLookahead)
{
    FleetConfig fc = smallFleet(2, 1, true);
    fc.sw.fabricLatencyTicks = fc.syncWindowTicks - 1;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetConfigT, ValidateRejectsOverlappingFlowRanges)
{
    FleetConfig fc = smallFleet(2, 1, true);
    fc.nodes[1].txTraffic.flowIdBase = fc.nodes[0].txTraffic.flowIdBase;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetConfigT, ValidateRejectsForwardingWithoutTxProfile)
{
    FleetConfig fc = smallFleet(2, 1, true);
    fc.nodes[0].txTraffic.flows.clear();
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetConfigT, ValidateRejectsOddPairs)
{
    FleetConfig fc = smallFleet(3, 1, true);
    fc.topology = FleetTopology::Pairs;
    EXPECT_THROW(fc.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Fleet runs
// ---------------------------------------------------------------------

TEST(Fleet, ForwardingDeliversPeerFlowsWithoutErrors)
{
    FleetRunner fleet(smallFleet(3, 1, true));
    FleetResults res = fleet.run();

    EXPECT_EQ(res.errors, 0u);
    EXPECT_GT(res.framesForwarded, 0u);
    EXPECT_EQ(res.windows, 45u); // 450 us in 10 us windows
    // Ring: node 1's receive validator must have seen node 0's
    // transmit flows (global ids 0..2) alongside its own rx flows.
    const FlowSink &rx1 = fleet.node(1).rxFlowSink();
    std::uint32_t srcTxBase = fleet.node(0).config().txTraffic.flowIdBase;
    bool sawForwarded = false;
    for (std::uint32_t f = srcTxBase; f < srcTxBase + 3; ++f)
        if (rx1.flow(f) && rx1.flow(f)->frames > 0)
            sawForwarded = true;
    EXPECT_TRUE(sawForwarded);
    // Switch transit latency is at least the fabric latency.
    EXPECT_GE(res.switchLatencyMeanUs, 10.0);
}

TEST(Fleet, DeterministicAcrossThreadCounts)
{
    FleetRunner serial(smallFleet(3, 1, true));
    auto serial_logs = traceEveryNode(serial);
    FleetResults rs = serial.run();

    FleetRunner threaded(smallFleet(3, 4, true));
    auto threaded_logs = traceEveryNode(threaded);
    FleetResults rt = threaded.run();

    ASSERT_EQ(rs.nic.size(), rt.nic.size());
    for (unsigned i = 0; i < rs.nic.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        // Results, the full stat tree and the trace, byte for byte.
        equiv::expectIdenticalRuns(
            equiv::snapshot(serial.node(i), rs.nic[i],
                            serial_logs[i].get()),
            equiv::snapshot(threaded.node(i), rt.nic[i],
                            threaded_logs[i].get()));
        EXPECT_EQ(rs.wireHash[i], rt.wireHash[i]);
        EXPECT_EQ(rs.injectHash[i], rt.injectHash[i]);
    }
    EXPECT_EQ(rs.framesForwarded, rt.framesForwarded);
    EXPECT_EQ(rs.framesDropped, rt.framesDropped);
    EXPECT_EQ(rs.injectRejected, rt.injectRejected);
    EXPECT_GT(rs.framesForwarded, 0u);
}

TEST(Fleet, IsolatedNodeMatchesStandaloneController)
{
    // topology None: the windowed parallel engine must reproduce the
    // classic single-instance runWindow() path bit-for-bit.
    FleetConfig fc = smallFleet(2, 2, false);
    FleetRunner fleet(fc);
    auto logs = traceEveryNode(fleet);
    FleetResults res = fleet.run();

    for (unsigned i = 0; i < 2; ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        equiv::RunSnapshot ref = equiv::runSnapshot(
            fc.nodes[i], fc.warmupTicks, fc.measureTicks);
        equiv::expectIdenticalRuns(
            ref, equiv::snapshot(fleet.node(i), res.nic[i],
                                 logs[i].get()));
    }
    EXPECT_EQ(res.framesForwarded, 0u);
}

TEST(Fleet, ReportExposesPerInstanceSubtreesAndAggregate)
{
    FleetRunner fleet(smallFleet(2, 1, true));
    FleetResults res = fleet.run();

    obs::json::Value doc = fleet.reportJson(res);
    EXPECT_NE(doc.at("nic").at("0").at("link").find("txFrames"), nullptr);
    EXPECT_NE(doc.at("nic").at("1").at("link").find("txFrames"), nullptr);
    EXPECT_EQ(doc.at("fleet").at("switch").at("forwarded").asNumber(),
              static_cast<double>(res.framesForwarded));
    EXPECT_EQ(doc.at("schema").asString(), "tengig-fleet-v1");
    EXPECT_EQ(doc.at("nodes").asNumber(), 2.0);
    EXPECT_EQ(doc.at("determinism").at("wireHash").size(), 2u);
    EXPECT_TRUE(doc.at("nic").find("0") != nullptr);
    EXPECT_TRUE(doc.at("nic").find("1") != nullptr);
    EXPECT_TRUE(doc.at("fleet").find("switch") != nullptr);
}
