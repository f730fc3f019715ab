/**
 * @file
 * Observer equivalence on every bench workload shape.
 *
 * Attaching a Chrome trace (NicController::attachTrace) records lanes,
 * spans and a 1 µs occupancy sampler, but it only observes: the traced
 * run must produce exactly the results and stat tree of the untraced
 * run.  The shapes are the default duplex, a single-stream fault
 * storm, the 8-flow IMIX, task-level firmware, the vf_isolation quick
 * rows (victim + storming aggressor VFs) and the fault_storm quick
 * row.
 * Trace-timeline determinism itself is pinned by
 * Determinism.DuplexRunRepeatsExactly (test_sim_speed).
 */

#include <gtest/gtest.h>

#include "equivalence.hh"

using namespace tengig;

namespace {

void
expectTraceObservesOnly(const NicConfig &cfg)
{
    const Tick warmup = tickPerMs / 4;
    const Tick window = tickPerMs / 2;
    equiv::RunSnapshot plain = equiv::runSnapshot(cfg, warmup, window,
                                                  false);
    equiv::RunSnapshot traced = equiv::runSnapshot(cfg, warmup, window);
    equiv::expectIdenticalResults(plain.res, traced.res);
    EXPECT_EQ(plain.stats, traced.stats) << "tracing perturbed the run";
    EXPECT_NE(traced.trace.find("\"core0\""), std::string::npos)
        << "traced run recorded no core lane";
}

/** The vf_isolation quick row shapes (victim + storming aggressor). */
NicConfig
vnicStormConfig()
{
    NicConfig cfg;
    cfg.sendRingFrames = 128;

    VfConfig victim;
    victim.name = "victim";
    victim.weight = 1.0;
    victim.txRateGbps = 2.0;
    victim.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0x71c71);
    victim.rxTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.15, 0x71c72);

    VfConfig aggressor;
    aggressor.name = "aggressor";
    aggressor.weight = 1.0;
    aggressor.txTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0xa66e1);
    aggressor.rxTraffic = TrafficProfile::uniform(
        4, SizeModel::fixed(1472), ArrivalModel::paced(), 0.35, 0xa66e2);
    aggressor.faults.wireCrcRate = 0.010;
    aggressor.faults.wireTruncateRate = 0.005;
    aggressor.faults.wireRuntRate = 0.005;
    aggressor.faults.txPoisonRate = 0.010;
    aggressor.faults.memFaultRate = 0.004;
    aggressor.faults.doorbellDropRate = 0.050;
    aggressor.faults.watchdogCycles = 50000;

    cfg.vfs = {victim, aggressor};
    return cfg;
}

/**
 * Fixed-size single streams under wire, poison and doorbell faults
 * with a watchdog: poison skips leave flow-0 holes on the wire-side
 * validator, and damaged arrivals leave receive gaps.
 */
NicConfig
singleStreamFaultConfig()
{
    NicConfig cfg;
    cfg.faults.wireCrcRate = 0.010;
    cfg.faults.wireTruncateRate = 0.005;
    cfg.faults.wireRuntRate = 0.005;
    cfg.faults.txPoisonRate = 0.010;
    cfg.faults.doorbellDropRate = 0.050;
    cfg.faults.watchdogCycles = 50000;
    return cfg;
}

/** The fault_storm quick row shape (storm raging the whole run). */
NicConfig
faultStormConfig()
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::uniform(
        8, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0xbe7c);
    cfg.rxTraffic = TrafficProfile::uniform(
        8, SizeModel::fixed(1472), ArrivalModel::paced(), 1.0, 0xbe7c);
    cfg.faults.wireCrcRate = 0.010;
    cfg.faults.wireTruncateRate = 0.005;
    cfg.faults.wireRuntRate = 0.005;
    cfg.faults.txPoisonRate = 0.010;
    cfg.faults.memFaultRate = 0.004;
    cfg.faults.doorbellDropRate = 0.050;
    cfg.faults.watchdogCycles = 50000;
    return cfg;
}

TEST(TraceEquivalence, DefaultDuplex)
{
    expectTraceObservesOnly(NicConfig{});
}

TEST(TraceEquivalence, SingleStreamFaults)
{
    NicConfig cfg = singleStreamFaultConfig();
    expectTraceObservesOnly(cfg);

    // The shape must actually exercise what it is here for: matched
    // poison-skip holes on flow 0 of the lossless transmit validator.
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 4, tickPerMs / 2);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.flowsValidated, 0u);
    EXPECT_GT(nic.txFlowSink().injectedDrops(), 0u);
    EXPECT_EQ(nic.txFlowSink().flowsSeen(), 1u);
    EXPECT_GT(nic.rxFlowSink().gapErrors(), 0u);
}

TEST(TraceEquivalence, ImixEightFlows)
{
    NicConfig cfg;
    cfg.txTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x51);
    cfg.rxTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x52);
    expectTraceObservesOnly(cfg);
}

TEST(TraceEquivalence, TaskLevelDuplex)
{
    NicConfig cfg;
    cfg.taskLevelFirmware = true;
    expectTraceObservesOnly(cfg);
}

TEST(TraceEquivalence, VfIsolationStorm)
{
    expectTraceObservesOnly(vnicStormConfig());
}

TEST(TraceEquivalence, FaultStorm)
{
    expectTraceObservesOnly(faultStormConfig());
}

} // namespace
