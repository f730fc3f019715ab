/**
 * @file
 * Determinism and idle-sleep exactness guards for the simulator
 * hot-path machinery: the recycled-slot event queue, recurring events,
 * core park/wake, and the parallel sweep runner.
 *
 * These tests pin the central invariant of the performance work: none
 * of it may change any simulated result.  A traced duplex run must
 * reproduce every NicResults field, the stat tree and the Chrome trace
 * exactly every time (and through the threaded sweep runner), and
 * enabling idle-core sleep must leave the
 * architectural core statistics bit-identical while executing far
 * fewer host events.  The icache/scratchpad access counters are
 * deliberately outside the sleep exactness contract (see DESIGN.md
 * §10): the wake replay reproduces recency state, not access counts.
 */

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "equivalence.hh"

using namespace tengig;

namespace {

equiv::RunSnapshot
runDuplex()
{
    NicConfig cfg;
    cfg.cores = 2;
    cfg.cpuMhz = 200.0;
    return equiv::runSnapshot(cfg, tickPerMs / 4, tickPerMs / 2);
}

} // namespace

TEST(Determinism, DuplexRunRepeatsExactly)
{
    equiv::RunSnapshot first = runDuplex();
    equiv::RunSnapshot second = runDuplex();
    equiv::expectIdenticalRuns(first, second);
    EXPECT_EQ(first.executedEvents, second.executedEvents);
}

TEST(Determinism, SweepRunnerMatchesSerial)
{
    equiv::RunSnapshot serial = runDuplex();
    // Two copies of the same point through the threaded runner: both
    // must reproduce the serial run exactly.
    auto swept = bench::runSweep(2, 2,
                                 [](std::size_t) { return runDuplex(); });
    ASSERT_EQ(swept.size(), 2u);
    for (const equiv::RunSnapshot &o : swept) {
        equiv::expectIdenticalRuns(serial, o);
        EXPECT_EQ(serial.executedEvents, o.executedEvents);
    }
}

namespace {

/** Quiet receive: sparse frames with long idle gaps between them. */
NicResults
runQuietRx(bool idle_sleep, std::uint64_t *executed)
{
    NicConfig cfg;
    cfg.cores = 1;
    cfg.cpuMhz = 200.0;
    cfg.idleSleep = idle_sleep;
    cfg.rxOfferedRate = 0.02;
    NicController nic(cfg);
    NicResults r = nic.runRxOnly(20, 4 * tickPerMs);
    *executed = nic.eventQueue().executedEvents();
    return r;
}

/** Transmit burst posted up front, then a long drain. */
NicResults
runBatchedTx(bool idle_sleep, std::uint64_t *executed)
{
    NicConfig cfg;
    cfg.cores = 1;
    cfg.cpuMhz = 200.0;
    cfg.idleSleep = idle_sleep;
    NicController nic(cfg);
    NicResults r = nic.runTxOnly(24, 4 * tickPerMs);
    *executed = nic.eventQueue().executedEvents();
    return r;
}

} // namespace

TEST(IdleSleep, QuietReceiveIsExactAndCheaper)
{
    std::uint64_t ev_poll = 0, ev_sleep = 0;
    NicResults poll = runQuietRx(false, &ev_poll);
    NicResults sleep = runQuietRx(true, &ev_sleep);

    // Identical simulated outcome...
    EXPECT_EQ(poll.rxFrames, sleep.rxFrames);
    EXPECT_EQ(poll.rxDropped, sleep.rxDropped);
    EXPECT_EQ(poll.errors, sleep.errors);
    EXPECT_EQ(poll.totalUdpGbps, sleep.totalUdpGbps);
    EXPECT_EQ(poll.measuredTicks, sleep.measuredTicks);
    equiv::expectIdenticalCoreStats(poll.coreTotals, sleep.coreTotals);

    // ...while skipping the vast majority of idle-poll host events.
    EXPECT_GT(sleep.rxFrames, 0u);
    EXPECT_LT(ev_sleep * 2, ev_poll);
}

TEST(IdleSleep, BatchedTransmitIsExact)
{
    std::uint64_t ev_poll = 0, ev_sleep = 0;
    NicResults poll = runBatchedTx(false, &ev_poll);
    NicResults sleep = runBatchedTx(true, &ev_sleep);

    EXPECT_EQ(poll.txFrames, sleep.txFrames);
    EXPECT_EQ(poll.errors, sleep.errors);
    EXPECT_EQ(poll.totalUdpGbps, sleep.totalUdpGbps);
    EXPECT_EQ(poll.measuredTicks, sleep.measuredTicks);
    equiv::expectIdenticalCoreStats(poll.coreTotals, sleep.coreTotals);
    EXPECT_GT(sleep.txFrames, 0u);
    // The post-drain tail is parked, so the sleeping run is cheaper.
    EXPECT_LT(ev_sleep, ev_poll);
}
