/**
 * @file
 * Stat-path contract with the repository benchmark.
 *
 * perfbench/nicbench.cc reads its layer counters out of each NIC's
 * stat tree with checked lookups (StatGroup::value), which are fatal
 * on an unknown name.  Deleting or renaming one of those stats would
 * turn every benchmark run into a failed run, so this test pins every
 * path that readCounters() and readLevels() read, on NICs shaped like
 * the benchmark's single-NIC workloads and on a fleet node.  The list
 * mirrors nicbench.cc; keep the two in step.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "firmware/fw_state.hh"
#include "fleet/fleet.hh"

using namespace tengig;

namespace {

/** Every path nicbench.cc reads with a checked value(). */
std::vector<std::string>
benchmarkReadPaths(unsigned cores)
{
    std::vector<std::string> p;
    for (unsigned i = 0; i < cores; ++i) {
        std::string c = "core" + std::to_string(i) + ".";
        for (const char *s :
             {"instructions", "loadStallCycles", "conflictCycles",
              "imissCycles", "executeCycles", "pipelineCycles",
              "idleCycles", "idlePolls", "invocations", "icache.missRatio"})
            p.push_back(c + s);
    }
    for (const char *b :
         {"Send_Dispatch_and_Ordering", "Receive_Dispatch_and_Ordering",
          "Send_Locking", "Receive_Locking"})
        p.push_back(std::string("fw.") + b + ".instructions");
    for (unsigned l = 0; l < numFwLocks; ++l) {
        std::string k = "fw.lock" + std::to_string(l) + ".";
        p.push_back(k + "acquires");
        p.push_back(k + "spins");
    }
    for (const char *s :
         {"spad.accesses", "spad.conflictCycles", "sdram.bursts",
          "sdram.chainedBursts", "sdram.materializations",
          "dmaRead.commands", "dmaWrite.commands",
          "dmaRead.fifo_full_rejects", "dmaWrite.fifo_full_rejects",
          "macRx.drops", "link.rxDrops", "link.txFrames",
          "link.rxFramesDelivered", "traffic.rxOffered",
          "hostMem.materializations"})
        p.push_back(s);
    return p;
}

void
expectBenchmarkPaths(NicController &nic)
{
    const obs::StatGroup &t = nic.statTree();
    for (const std::string &path : benchmarkReadPaths(nic.config().cores))
        EXPECT_TRUE(t.has(path)) << "benchmark reads missing stat " << path;
}

/** Multi-flow paced duplex at MTU, as every benchmark workload runs. */
NicConfig
mtuDuplex(double rate)
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.cpuMhz = 166.0;
    cfg.firmware.rmwEnhanced = true;
    cfg.txTraffic = TrafficProfile::uniform(
        8, SizeModel::fixed(1472), ArrivalModel::paced(), rate, 1);
    cfg.rxTraffic = TrafficProfile::uniform(
        8, SizeModel::fixed(1472), ArrivalModel::paced(), rate, 2);
    cfg.txPaceRate = rate;
    return cfg;
}

} // namespace

TEST(BenchContract, EveryStatPathTheBenchmarkReadsExists)
{
    {
        SCOPED_TRACE("duplex at MTU");
        NicController nic(mtuDuplex(1.0));
        expectBenchmarkPaths(nic);
    }
    {
        SCOPED_TRACE("task-level IMIX");
        NicConfig cfg;
        cfg.cores = 6;
        cfg.taskLevelFirmware = true;
        cfg.txTraffic = TrafficProfile::uniform(
            64, SizeModel::imix(), ArrivalModel::paced(), 0.1, 3);
        cfg.rxTraffic = TrafficProfile::uniform(
            64, SizeModel::imix(), ArrivalModel::paced(), 0.1, 4);
        cfg.txPaceRate = 0.1;
        NicController nic(cfg);
        expectBenchmarkPaths(nic);
    }
    {
        SCOPED_TRACE("fleet ring node");
        FleetConfig fc = FleetConfig::uniform(mtuDuplex(0.5), 3, true);
        FleetRunner fleet(fc);
        for (unsigned i = 0; i < fleet.size(); ++i)
            expectBenchmarkPaths(fleet.node(i));
    }
}
