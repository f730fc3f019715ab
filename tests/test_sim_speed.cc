/**
 * @file
 * Determinism guards for the simulator hot-path machinery: the
 * recycled-slot event queue, recurring events and the parallel sweep
 * runner.
 *
 * These tests pin the central invariant of the performance work: none
 * of it may change any simulated result.  A traced duplex run must
 * reproduce every NicResults field, the stat tree and the Chrome trace
 * exactly every time, and through the threaded sweep runner.
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
