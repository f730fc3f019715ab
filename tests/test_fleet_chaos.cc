/**
 * @file
 * Fleet fault-domain tests: the fabric fault injector in isolation
 * (deterministic, decorrelated, storm-gated streams), the barrier-
 * sampled fleet health monitor, paced transmit posting, the chaos
 * configuration surface, and small end-to-end recovery runs asserting
 * the reliable-delivery contracts (exact injected == recovered
 * accounting, duplicate suppression, zero receive gaps) that the
 * full-size soak in bench/fleet_chaos.cc checks at scale.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "sim/logging.hh"

using namespace tengig;

namespace {

constexpr Tick usT = tickPerUs;

/** Cross-traffic-only node, paced below line rate so reliable runs
 *  leave the fabric retransmission headroom. */
NicConfig
chaosNodeTemplate()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        2, SizeModel::fixed(1472), ArrivalModel::paced(), 0.5, 0xc4a05);
    cfg.txPaceRate = 0.5;
    return cfg;
}

/** Two-node ring with bench-like windowing, shrunk for unit tests. */
FleetConfig
chaosFleet(unsigned threads = 1)
{
    FleetConfig fc = FleetConfig::uniform(chaosNodeTemplate(), 2, true);
    fc.threads = threads;
    fc.syncWindowTicks = 10 * usT;
    fc.sw.fabricLatencyTicks = 10 * usT;
    fc.sw.egressQueueFrames = 32;
    fc.warmupTicks = 150 * usT;
    fc.measureTicks = 300 * usT;
    return fc;
}

/** A storm confined to the warmup window. */
void
addStorm(FleetConfig &fc)
{
    FabricFaultPlan &p = fc.fabricFaults;
    p.stormStart = 20 * usT;
    p.stormEnd = 120 * usT;
    p.linkFlapRate = 0.25;
    p.dropRate = 0.02;
    p.corruptRate = 0.02;
    p.ackDropRate = 0.05;
    p.nodeStallRate = 0.02;
    p.nodeStallTicks = 30 * usT;
}

std::uint64_t
sumGaps(const FleetResults &r)
{
    std::uint64_t n = 0;
    for (const NicResults &nic : r.nic)
        n += nic.orderGaps;
    return n;
}

/** Down/up profile of one link sampled at 1 us steps. */
std::vector<bool>
flapProfile(FabricFaultInjector &inj, unsigned link, Tick until)
{
    std::vector<bool> p;
    for (Tick t = 0; t < until; t += usT)
        p.push_back(inj.linkDown(link, t));
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Fault plan validation
// ---------------------------------------------------------------------

TEST(FabricFaultPlanV, RejectsInvertedFlapRange)
{
    FabricFaultPlan p;
    p.linkFlapRate = 0.1;
    p.flapMinTicks = 60 * usT;
    p.flapMaxTicks = 20 * usT;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(FabricFaultPlanV, RejectsZeroFlapEpochAndDuration)
{
    FabricFaultPlan p;
    p.linkFlapRate = 0.1;
    p.flapEpochTicks = 0;
    EXPECT_THROW(p.validate(), FatalError);
    p.flapEpochTicks = 100 * usT;
    p.flapMinTicks = 0;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(FabricFaultPlanV, RejectsOutOfRangeRates)
{
    FabricFaultPlan p;
    p.dropRate = 1.5;
    EXPECT_THROW(p.validate(), FatalError);
    p.dropRate = 0.0;
    p.corruptRate = -0.1;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(FabricFaultPlanV, RejectsZeroStallDuration)
{
    FabricFaultPlan p;
    p.nodeStallRate = 0.1;
    p.nodeStallTicks = 0;
    EXPECT_THROW(p.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Fleet config validation (chaos surface)
// ---------------------------------------------------------------------

TEST(FleetChaosConfig, RejectsChaosWithoutTopology)
{
    FleetConfig fc = chaosFleet();
    fc.topology = FleetTopology::None;
    fc.fabricFaults.dropRate = 0.01;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetChaosConfig, LatencyEqualToWindowIsValidWithChaosOn)
{
    FleetConfig fc = chaosFleet();
    addStorm(fc);
    fc.reliable.enabled = true;
    ASSERT_EQ(fc.sw.fabricLatencyTicks, fc.syncWindowTicks);
    EXPECT_NO_THROW(fc.validate());
    fc.sw.fabricLatencyTicks = fc.syncWindowTicks - 1;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetChaosConfig, RejectsReliableWithoutPacedTx)
{
    FleetConfig fc = chaosFleet();
    fc.reliable.enabled = true;
    fc.nodes[1].txPaceRate = 0.0;
    EXPECT_THROW(fc.validate(), FatalError);
}

TEST(FleetChaosConfig, ExplicitTimeoutBelowRttBoundIsRejected)
{
    FleetConfig fc = chaosFleet();
    fc.reliable.enabled = true;
    Tick floor = fc.minRetransmitTimeout();
    fc.reliable.retransmitTimeout = floor - 1;
    EXPECT_THROW(fc.validate(), FatalError);
    fc.reliable.retransmitTimeout = floor;
    EXPECT_NO_THROW(fc.validate());
}

TEST(FleetChaosConfig, UniformDerivesDecorrelatedFaultSeeds)
{
    NicConfig tmpl = chaosNodeTemplate();
    FleetConfig fc = FleetConfig::uniform(tmpl, 3, true);
    EXPECT_NE(fc.nodes[0].faults.seed, fc.nodes[1].faults.seed);
    EXPECT_NE(fc.nodes[1].faults.seed, fc.nodes[2].faults.seed);
    EXPECT_NE(fc.nodes[0].faults.seed, tmpl.faults.seed);
    // Same fleet seed, same derivation: the namespace is reproducible.
    FleetConfig fc2 = FleetConfig::uniform(tmpl, 3, true);
    EXPECT_EQ(fc.nodes[2].faults.seed, fc2.nodes[2].faults.seed);
}

// ---------------------------------------------------------------------
// Fabric fault injector
// ---------------------------------------------------------------------

TEST(FabricFaults, FlapWindowsDeterministicAndDecorrelated)
{
    FabricFaultPlan p;
    p.linkFlapRate = 1.0; // a window every epoch on every link
    FabricFaultInjector a(p, 2);
    FabricFaultInjector b(p, 2);
    auto a0 = flapProfile(a, 0, 500 * usT);
    auto b0 = flapProfile(b, 0, 500 * usT);
    // Same (seed, link): bit-identical down windows, however queried.
    EXPECT_EQ(a0, b0);
    // Different link: a different stream, hence different windows.
    auto a1 = flapProfile(a, 1, 500 * usT);
    EXPECT_NE(a0, a1);
    // Rate 1.0 over five epochs must actually produce down time.
    EXPECT_NE(std::count(a0.begin(), a0.end(), true), 0);
}

TEST(FabricFaults, FrameRollsAreStormGated)
{
    FabricFaultPlan p;
    p.dropRate = 1.0;
    p.stormStart = 100 * usT;
    p.stormEnd = 200 * usT;
    FabricFaultInjector inj(p, 1);
    EXPECT_FALSE(inj.rollDrop(0, 50 * usT));
    EXPECT_TRUE(inj.rollDrop(0, 150 * usT));
    EXPECT_FALSE(inj.rollDrop(0, 250 * usT));
    EXPECT_EQ(inj.dropsInjected(), 1u);
}

TEST(FabricFaults, NodeStallEpisodesNeverOverlap)
{
    FabricFaultPlan p;
    p.nodeStallRate = 1.0;
    p.nodeStallTicks = 50 * usT;
    FabricFaultInjector inj(p, 2);
    auto e = inj.rollNodeStall(0, 0, 10 * usT);
    ASSERT_TRUE(e.has_value());
    EXPECT_LT(e->first, 10 * usT);
    EXPECT_EQ(e->second, 50 * usT);
    // Next barrier lands inside the running episode: suppressed.
    EXPECT_FALSE(inj.rollNodeStall(0, 10 * usT, 10 * usT).has_value());
    // The other node's stream is independent and still fires.
    EXPECT_TRUE(inj.rollNodeStall(1, 10 * usT, 10 * usT).has_value());
    EXPECT_EQ(inj.nodeStallEpisodes(), 2u);
}

// ---------------------------------------------------------------------
// Fleet health monitor
// ---------------------------------------------------------------------

TEST(FleetHealth, WedgeIsFatalNamingNodeAndLink)
{
    FleetHealthMonitor h;
    h.addNode({"node 0 (egress link 1)", [] { return Tick{100}; },
               [] { return false; }, [] { return false; },
               [] { return std::string("ok"); }});
    h.addNode({"node 1 (egress link 0)", [] { return Tick{100}; },
               [] { return true; }, [] { return true; },
               [] { return std::string("wedged pipeline"); }});
    try {
        h.sample(10 * usT);
        FAIL() << "wedged node not detected";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("node 1 (egress link 0)"), std::string::npos);
        EXPECT_NE(what.find("wedged pipeline"), std::string::npos);
    }
}

TEST(FleetHealth, HeartbeatMissCountsBusyNodeWithFrozenRetireClock)
{
    Tick retire0 = 100;
    FleetHealthMonitor h;
    // Node 0: busy, retirement clock frozen -- every sampled window
    // after the baseline is a miss.
    h.addNode({"node 0", [&] { return retire0; }, [] { return true; },
               [] { return false; }, {}});
    // Node 1: busy but advancing -- never a miss.
    Tick retire1 = 100;
    h.addNode({"node 1", [&] { return retire1 += 10; },
               [] { return true; }, [] { return false; }, {}});
    h.sample(10 * usT); // baseline only
    EXPECT_EQ(h.heartbeatMissesTotal(), 0u);
    h.sample(20 * usT);
    h.sample(30 * usT);
    EXPECT_EQ(h.heartbeatMissesTotal(), 2u);
    EXPECT_EQ(h.heartbeatMisses(0), 2u);
    EXPECT_EQ(h.heartbeatMisses(1), 0u);
    EXPECT_EQ(h.samplesRun(), 3u);
}

// ---------------------------------------------------------------------
// Paced transmit posting
// ---------------------------------------------------------------------

TEST(PacedTx, MetersPostingToConfiguredFraction)
{
    NicConfig cfg = chaosNodeTemplate();
    NicController nc(cfg);
    NicResults r = nc.run(100 * usT, 400 * usT);
    // 0.5 of line rate: 1472 B UDP payload over 1538 wire bytes at
    // 10 Gb/s is 9.57 Gbps, so the paced stream carries ~4.79.
    EXPECT_NEAR(r.txUdpGbps, 4.79, 0.25);
    EXPECT_EQ(r.errors, 0u);
}

TEST(PacedTx, UnpacedRingStaysBacklogged)
{
    NicConfig cfg = chaosNodeTemplate();
    cfg.txPaceRate = 0.0;
    NicController nc(cfg);
    NicResults r = nc.run(100 * usT, 400 * usT);
    EXPECT_GT(r.txUdpGbps, 9.0); // saturated wire, not the 0.5 pace
}

TEST(PacedTx, ConfigGuards)
{
    NicConfig cfg = chaosNodeTemplate();
    cfg.txPaceRate = 1.5;
    EXPECT_THROW(NicController{cfg}, FatalError);
    cfg.txPaceRate = 0.5;
    cfg.txTraffic = TrafficProfile{};
    EXPECT_THROW(NicController{cfg}, FatalError);
    // Quiescing a backlogged (unpaced) source is a contract violation.
    NicConfig plain = chaosNodeTemplate();
    plain.txPaceRate = 0.0;
    NicController nc(plain);
    EXPECT_THROW(nc.quiesceTx(), FatalError);
}

// ---------------------------------------------------------------------
// End-to-end recovery runs
// ---------------------------------------------------------------------

TEST(FleetChaosRun, DropStormFullyRecovered)
{
    FleetConfig fc = chaosFleet();
    fc.fabricFaults.dropRate = 0.05;
    fc.fabricFaults.stormStart = 20 * usT;
    fc.fabricFaults.stormEnd = 120 * usT;
    fc.reliable.enabled = true;
    FleetRunner fleet(fc);
    FleetResults r = fleet.run();
    EXPECT_GT(r.fabricDrops, 0u);
    EXPECT_EQ(r.recoveredByClass[static_cast<unsigned>(
                  FabricFaultClass::Drop)],
              r.fabricDrops);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(sumGaps(r), 0u);
    EXPECT_EQ(r.unaccountedLoss, 0u);
    EXPECT_EQ(r.reliableOwedOutstanding, 0u);
    EXPECT_EQ(r.reliablePending, 0u);
    EXPECT_EQ(r.rxBuffered, 0u);
    EXPECT_EQ(r.rxRetries, r.rxRefusals);
}

TEST(FleetChaosRun, LostAcksAreSuppressedAsDuplicates)
{
    FleetConfig fc = chaosFleet();
    fc.fabricFaults.ackDropRate = 0.2;
    fc.fabricFaults.stormStart = 20 * usT;
    fc.fabricFaults.stormEnd = 120 * usT;
    fc.reliable.enabled = true;
    FleetRunner fleet(fc);
    FleetResults r = fleet.run();
    EXPECT_GT(r.fabricAckLost, 0u);
    // Every lost ack forces a retransmission of a frame that already
    // arrived; the receiver must eat each one exactly once.
    EXPECT_EQ(r.dupSuppressed, r.fabricAckLost);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(sumGaps(r), 0u);
    std::uint64_t dupsDelivered = 0;
    for (const NicResults &nic : r.nic)
        dupsDelivered += nic.orderDuplicates;
    EXPECT_EQ(dupsDelivered, 0u);
}

TEST(FleetChaosRun, NodeStallsAreDetectedAndSurvived)
{
    FleetConfig fc = chaosFleet();
    fc.fabricFaults.nodeStallRate = 0.1;
    fc.fabricFaults.nodeStallTicks = 30 * usT;
    fc.fabricFaults.stormStart = 20 * usT;
    fc.fabricFaults.stormEnd = 120 * usT;
    fc.reliable.enabled = true;
    FleetRunner fleet(fc);
    FleetResults r = fleet.run();
    EXPECT_GT(r.nodeStallEpisodes, 0u);
    EXPECT_GT(r.heartbeatMisses, 0u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(sumGaps(r), 0u);
    EXPECT_EQ(r.rxBuffered, 0u);
}

TEST(FleetChaosRun, StormIsBitIdenticalAcrossThreadCounts)
{
    FleetConfig f1 = chaosFleet(1);
    addStorm(f1);
    f1.reliable.enabled = true;
    FleetConfig f4 = chaosFleet(4);
    addStorm(f4);
    f4.reliable.enabled = true;
    FleetRunner a(f1);
    FleetResults ra = a.run();
    FleetRunner b(f4);
    FleetResults rb = b.run();
    EXPECT_EQ(ra.wireHash, rb.wireHash);
    EXPECT_EQ(ra.injectHash, rb.injectHash);
    EXPECT_EQ(ra.framesForwarded, rb.framesForwarded);
    EXPECT_EQ(ra.retransmits, rb.retransmits);
    EXPECT_EQ(ra.recoveredTotal, rb.recoveredTotal);
    EXPECT_EQ(ra.dupSuppressed, rb.dupSuppressed);
    EXPECT_EQ(ra.nodeStallEpisodes, rb.nodeStallEpisodes);
    EXPECT_EQ(ra.heartbeatMisses, rb.heartbeatMisses);
    ASSERT_EQ(ra.nic.size(), rb.nic.size());
    for (std::size_t i = 0; i < ra.nic.size(); ++i) {
        EXPECT_EQ(ra.nic[i].txFrames, rb.nic[i].txFrames);
        EXPECT_EQ(ra.nic[i].rxFrames, rb.nic[i].rxFrames);
        EXPECT_EQ(ra.nic[i].errors, rb.nic[i].errors);
    }
}

TEST(FleetChaosRun, DisabledChaosLeavesNoStructuralTrace)
{
    FleetConfig fc = chaosFleet();
    FleetRunner fleet(fc);
    FleetResults r = fleet.run();
    obs::json::Value doc = fleet.reportJson(r);
    // Conditional sections are absent, not zero-filled: a default
    // fleet's report is indistinguishable from a build without the
    // fault-domain subsystem.
    EXPECT_EQ(doc.find("chaos"), nullptr);
    EXPECT_EQ(doc.find("reliable"), nullptr);
    EXPECT_EQ(r.fabricDrops, 0u);
    EXPECT_EQ(r.retransmits, 0u);

    FleetConfig cc = chaosFleet();
    addStorm(cc);
    cc.reliable.enabled = true;
    FleetRunner chaotic(cc);
    FleetResults rc = chaotic.run();
    obs::json::Value cdoc = chaotic.reportJson(rc);
    EXPECT_NE(cdoc.find("chaos"), nullptr);
    EXPECT_NE(cdoc.find("reliable"), nullptr);
}

TEST(FleetChaosRun, EgressFifoDropsFeedTheLedger)
{
    // No chaos, no reliability: a one-frame egress FIFO draining at
    // half the offered line rate drops at the switch, and every drop
    // shows up both in the per-port stat surface and the delivery
    // ledger.
    FleetConfig fc = chaosFleet();
    for (NicConfig &n : fc.nodes)
        n.txPaceRate = 0.0; // saturate the wire on purpose
    fc.sw.egressQueueFrames = 1;
    fc.sw.egressGbps = 5.0;
    FleetRunner fleet(fc);
    FleetResults r = fleet.run();
    EXPECT_GT(r.framesDropped, 0u);
    EXPECT_EQ(r.unaccountedLoss, 0u);
    std::uint64_t statDrops = 0;
    for (unsigned i = 0; i < fleet.size(); ++i)
        statDrops += static_cast<std::uint64_t>(fleet.fleetStats().value(
            "switch.egress" + std::to_string(i) + ".drops"));
    EXPECT_EQ(statDrops, r.framesDropped);
}
