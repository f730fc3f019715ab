/**
 * @file
 * Simulator-speed microbench: host-side event throughput per config.
 *
 * Every figure/table reproduction funnels through the one
 * discrete-event kernel, so its host-side throughput bounds how large
 * a parameter sweep is affordable.  This bench times representative
 * NIC configurations and reports host events/sec and simulated
 * Mticks/sec (1 Mtick = 1 µs of simulated time) per config, plus the
 * setup cost of building and starting the NIC, writing a
 * tengig-bench-v1 document (default BENCH_sim_speed.json) that seeds
 * the simulator-performance trajectory.
 *
 * Wall-clock numbers are machine-dependent by nature; the committed
 * artifact is meaningful as a ratio against its predecessor on the
 * same machine, not as an absolute.
 *
 * --quick shrinks the windows for smoke tests; --json[=path] writes
 * the report.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"

using namespace tengig;
using namespace tengig::bench;

namespace {

struct SpeedPoint
{
    std::string name;       //!< row label
    std::string workload;   //!< "duplex", "imix" or "rx-light"
    unsigned cores;
    double cpuMhz;
    bool taskLevel;
};

struct SpeedResult
{
    double setupMs = 0.0;   //!< NicController construction + start
    double wallMs = 0.0;    //!< the run after setup
    std::uint64_t executedEvents = 0;
    Tick simTicks = 0;
    double eventsPerSec = 0.0;
    double simMticksPerSec = 0.0;
    double totalUdpGbps = 0.0;
    std::uint64_t frames = 0;
};

SpeedResult
measure(const SpeedPoint &p, bool quick)
{
    NicConfig cfg;
    cfg.cores = p.cores;
    cfg.cpuMhz = p.cpuMhz;
    cfg.taskLevelFirmware = p.taskLevel;

    const bool rx_light = p.workload == "rx-light";
    if (rx_light) {
        // Low receive load with long quiescent gaps between frames:
        // host time goes almost entirely to idle polls.
        cfg.rxOfferedRate = 0.02;
    } else if (p.workload == "imix") {
        // Mixed-size multi-flow duplex: the payload-heavy stress on
        // the zero-copy data path with per-flow validation on top.
        cfg.txTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x51);
        cfg.rxTraffic = TrafficProfile::imixPoisson(8, 1.0, 0x52);
    }

    using Clock = std::chrono::steady_clock;
    auto ms = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
    };

    SpeedResult r;
    NicResults res;
    auto t0 = Clock::now();
    NicController nic(cfg);
    if (rx_light) {
        // The finite receive run starts its own sources, so setup is
        // construction alone.
        auto t1 = Clock::now();
        unsigned frames = quick ? 20 : 120;
        Tick limit = (quick ? 4 : 16) * tickPerMs;
        res = nic.runRxOnly(frames, limit);
        auto t2 = Clock::now();
        r.setupMs = ms(t0, t1);
        r.wallMs = ms(t1, t2);
        r.frames = res.rxFrames;
    } else {
        // run(warmup, window) through the phase API, so that the
        // start phase is timed as setup.
        nic.startRun();
        auto t1 = Clock::now();
        Tick warmup = quick ? tickPerMs / 4 : tickPerMs / 2;
        Tick window = quick ? tickPerMs / 2 : 2 * tickPerMs;
        nic.eventQueue().runUntil(warmup);
        nic.checkLiveness();
        nic.beginMeasurement();
        nic.eventQueue().runUntil(warmup + window);
        nic.checkLiveness();
        res = nic.endMeasurement();
        nic.stopRun();
        auto t2 = Clock::now();
        r.setupMs = ms(t0, t1);
        r.wallMs = ms(t1, t2);
        r.frames = res.txFrames + res.rxFrames;
    }
    r.executedEvents = nic.eventQueue().executedEvents();
    r.simTicks = nic.eventQueue().curTick();
    r.totalUdpGbps = res.totalUdpGbps;
    double wall_s = r.wallMs / 1e3;
    if (wall_s > 0) {
        r.eventsPerSec = static_cast<double>(r.executedEvents) / wall_s;
        r.simMticksPerSec =
            static_cast<double>(r.simTicks) / 1e6 / wall_s;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    printHeader("Simulator speed: host event throughput per config");

    bool quick = obs::hasFlag(argc, argv, "--quick");

    std::vector<SpeedPoint> points = {
        {"duplex 6c 200MHz (default)", "duplex", 6, 200, false},
        {"imix 6c 200MHz 8 flows", "imix", 6, 200, false},
        {"duplex 2c 200MHz", "duplex", 2, 200, false},
        {"duplex 6c 200MHz task-level", "duplex", 6, 200, true},
        {"rx-light 1c 200MHz", "rx-light", 1, 200, false},
    };

    obs::BenchReport report("sim_speed");
    std::printf("%-30s %12s %12s %10s %8s %9s\n", "config", "events/s",
                "Mticks/s", "events", "wall ms", "setup ms");
    std::printf("%.*s\n", 86,
                "----------------------------------------------------"
                "----------------------------------");
    for (const SpeedPoint &p : points) {
        SpeedResult r = measure(p, quick);
        std::printf("%-30s %12.0f %12.2f %10llu %8.1f %9.3f\n",
                    p.name.c_str(), r.eventsPerSec, r.simMticksPerSec,
                    static_cast<unsigned long long>(r.executedEvents),
                    r.wallMs, r.setupMs);

        obs::json::Value cfg = obs::json::Value::object();
        cfg.set("workload", p.workload);
        cfg.set("cores", p.cores);
        cfg.set("cpuMhz", p.cpuMhz);
        cfg.set("taskLevelFirmware", p.taskLevel);

        obs::json::Value m = obs::json::Value::object();
        m.set("hostEventsPerSec", r.eventsPerSec);
        m.set("simMticksPerSec", r.simMticksPerSec);
        m.set("executedEvents", r.executedEvents);
        m.set("wallMs", r.wallMs);
        m.set("setupMs", r.setupMs);
        m.set("totalUdpGbps", r.totalUdpGbps);
        m.set("frames", r.frames);
        report.addRow(p.name, std::move(cfg), std::move(m));
    }

    if (auto path = obs::jsonPathFromArgs(argc, argv, "sim_speed")) {
        report.write(*path);
        std::printf("\nwrote %s (%zu rows)\n", path->c_str(),
                    report.rows());
    }
    return 0;
}
