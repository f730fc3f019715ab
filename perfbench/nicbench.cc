/**
 * @file
 * Repository benchmark program: simulator speed plus simulated-NIC
 * output checks on three open-loop workloads (see README.md).
 *
 *   nicbench --workload <duplex_mtu|imix64_paced_tasklevel|fleet_ring3>
 *            --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
 *
 * A run repeats one fixed simulated workload, each repetition on a
 * freshly constructed NIC (or fleet), until --seconds of host time
 * have passed, and reports host metrics over the repetitions.  Every
 * repetition must produce byte-identical results: the simulated
 * metrics are functions of the seed alone.
 *
 * --trace 0 prints the end-to-end metrics.  --trace 1 alternates
 * untraced and traced repetitions and adds a reference run through the
 * one-call entry point (NicController::run).  On the fleet it
 * alternates 1-thread, 3-thread and traced 3-thread runs.  It checks
 * that all of them agree byte for byte and prints the per-layer
 * metrics.  The spans go to --spans as one JSON file, written when the
 * run ends.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics.  The exit code is 0 only when every output check
 * passed.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.hh"
#include "nic/controller.hh"
#include "obs/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace tengig;

namespace {

// ---------------------------------------------------------------------
// Host clocks

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU time, all threads. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Restart the process's peak-RSS mark, so the next reading covers one
 * repetition.  Free heap is returned to the system first: otherwise
 * the mark starts from whatever earlier repetitions left cached, and
 * creeps up with the repetition count.  Without /proc/self/clear_refs
 * the mark keeps its process-lifetime meaning.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last reset (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Quantile @p q of @p v, interpolating linearly between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * (v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Host speed is reported from the slow tail of the repetitions.  On
 * a shared 4-vCPU Xeon VM the memory system alternates between a
 * contended and an uncontended regime, in shares that change from run
 * to run, so the median lands in either; every run visits the
 * contended regime, and its tail reads within ~10% across runs
 * (README.md, "Steadiness").
 */
constexpr double slowTail = 0.05;

/** FNV-1a digest of a results fingerprint, printed for comparison
 *  across runs and commits. */
std::uint64_t
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

/** One line with the spread of a per-repetition host metric. */
void
printSpread(const char *name, const std::vector<double> &v)
{
    std::printf("%s over %zu repetitions: min %.6g, p5 %.6g, median %.6g, "
                "max %.6g\n",
                name, v.size(), quantile(v, 0), quantile(v, slowTail),
                median(v), quantile(v, 1));
    std::printf("  in run order:");
    for (double x : v)
        std::printf(" %.0f", x);
    std::printf("\n");
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Spans: recorded in memory around each call into a layer, written
// once when the run ends.

class SpanLog
{
  public:
    explicit SpanLog(bool on) : enabled(on), origin(Clock::now()) {}

    /** Open a span; -1 (and nothing recorded) when tracing is off. */
    int
    open(const char *name, const char *layer, int parent, int run)
    {
        if (!enabled)
            return -1;
        spans.push_back({name, layer, nowNs(), 0, parent, run});
        return static_cast<int>(spans.size() - 1);
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[id].endNs = nowNs();
    }

    /** Counter sample taken at a slice edge. */
    void
    sample(int run, unsigned slice, Tick tick, std::uint64_t events,
           std::size_t pending, double frames)
    {
        if (enabled)
            samples.push_back({run, slice, tick, events, pending, frames});
    }

    bool on() const { return enabled; }

    obs::json::Value
    toJson() const
    {
        using obs::json::Value;
        Value doc = Value::object();
        doc.set("schema", "tengig-perfbench-spans-v1");
        Value list = Value::array();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            Value v = Value::object();
            v.set("id", static_cast<std::uint64_t>(i));
            v.set("name", s.name);
            v.set("layer", s.layer);
            v.set("start_ns", s.startNs);
            v.set("end_ns", s.endNs);
            v.set("parent", s.parent);
            v.set("run", s.run);
            list.push(std::move(v));
        }
        doc.set("spans", std::move(list));
        Value cs = Value::array();
        for (const Sample &s : samples) {
            Value v = Value::object();
            v.set("run", s.run);
            v.set("slice", s.slice);
            v.set("tick", static_cast<std::uint64_t>(s.tick));
            v.set("events", s.events);
            v.set("pending", static_cast<std::uint64_t>(s.pending));
            v.set("frames", s.frames);
            cs.push(std::move(v));
        }
        doc.set("slice_counters", std::move(cs));
        return doc;
    }

  private:
    struct Span
    {
        std::string name;
        std::string layer;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
        int run;
    };

    struct Sample
    {
        int run;
        unsigned slice;
        Tick tick;
        std::uint64_t events;
        std::size_t pending;
        double frames;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin)
            .count();
    }

    bool enabled;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<Sample> samples;
};

/** Time @p f, recording it as a span when tracing; returns seconds. */
template <class F>
double
timed(SpanLog &log, const char *name, const char *layer, int parent,
      int run, F &&f)
{
    int id = log.open(name, layer, parent, run);
    auto t0 = Clock::now();
    f();
    double s = secondsSince(t0);
    log.close(id);
    return s;
}

// ---------------------------------------------------------------------
// Workloads.  Every seed the program sees is derived from --seed.

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t s = seed ^ (stream * 0xd1b54a32d192ed03ULL);
    return splitmix64(s);
}

struct Workload
{
    std::string name;
    NicConfig nic;           //!< single-NIC config, or the fleet template
    bool fleet = false;
    unsigned fleetNodes = 0;
    unsigned fleetThreads = 0;
    Tick warmup = 0;
    Tick window = 0;
    unsigned slices = 20;    //!< traced-run runUntil slices per window
    double lineRateGbps = 0; //!< saturation check target (0 = none)
};

/** 6 cores at 166 MHz with RMW-enhanced firmware: the paper's point. */
NicConfig
paperNic()
{
    NicConfig c;
    c.cores = 6;
    c.cpuMhz = 166.0;
    c.firmware.rmwEnhanced = true;
    return c;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    w.name = name;
    auto mtuFlows = [&](unsigned n, double rate, std::uint64_t stream) {
        return TrafficProfile::uniform(n, SizeModel::fixed(1472),
                                       ArrivalModel::paced(), rate,
                                       streamSeed(seed, stream));
    };
    if (name == "duplex_mtu") {
        w.nic = paperNic();
        w.nic.txTraffic = mtuFlows(8, 1.0, 1);
        w.nic.rxTraffic = mtuFlows(8, 1.0, 2);
        w.nic.txPaceRate = 1.0;
        w.warmup = tickPerMs / 2;
        w.window = 2 * tickPerMs;
        w.lineRateGbps = 2 * lineRateUdpGbps(1472);
        return true;
    }
    if (name == "imix64_paced_tasklevel") {
        w.nic.cores = 6;
        w.nic.cpuMhz = 200.0;
        w.nic.taskLevelFirmware = true;
        auto imix = [&](std::uint64_t stream) {
            return TrafficProfile::uniform(64, SizeModel::imix(),
                                           ArrivalModel::paced(), 0.1,
                                           streamSeed(seed, stream));
        };
        w.nic.txTraffic = imix(3);
        w.nic.rxTraffic = imix(4);
        w.nic.txPaceRate = 0.1;
        w.warmup = tickPerMs / 2;
        w.window = 8 * tickPerMs;
        return true;
    }
    if (name == "fleet_ring3") {
        w.fleet = true;
        w.fleetNodes = 3;
        w.fleetThreads = 3;
        // Per-node seeds replace these template ones (makeFleet).
        w.nic = paperNic();
        w.nic.txTraffic = mtuFlows(8, 0.5, 0);
        w.nic.rxTraffic = mtuFlows(8, 0.3, 0);
        w.nic.txPaceRate = 0.5;
        w.warmup = tickPerMs / 2;
        w.window = 2 * tickPerMs;
        return true;
    }
    return false;
}

FleetConfig
makeFleet(const Workload &w, std::uint64_t seed, unsigned threads)
{
    FleetConfig fc = FleetConfig::uniform(w.nic, w.fleetNodes, true);
    // uniform() derives per-node streams from the default fleet seed;
    // re-derive them from the benchmark seed the same way.
    fc.fleetSeed = streamSeed(seed, 5);
    for (unsigned i = 0; i < fc.nodes.size(); ++i) {
        std::uint64_t sm = fc.fleetSeed + 0x9e3779b97f4a7c15ULL * (i + 1);
        fc.nodes[i].txTraffic.seed = splitmix64(sm);
        fc.nodes[i].rxTraffic.seed = splitmix64(sm);
    }
    fc.threads = threads;
    fc.syncWindowTicks = 10 * tickPerUs;
    fc.sw.fabricLatencyTicks = 10 * tickPerUs;
    fc.warmupTicks = w.warmup;
    fc.measureTicks = w.window;
    return fc;
}

// ---------------------------------------------------------------------
// Layer counters, read from each NIC's public stat tree and event
// queue.  All are cumulative except where noted, so a window's work is
// the difference between two snapshots.

struct Counters
{
    double events = 0;
    double instructions = 0; //!< core stats: reset at beginMeasurement
    double coreCycles = 0;
    double stallCycles = 0;  //!< load + conflict + imiss
    double idlePolls = 0;
    double invocations = 0;
    double orderingInstr = 0; //!< profile: reset at beginMeasurement
    double spadAccesses = 0;
    double spadConflict = 0;
    double sdramBursts = 0;
    double sdramChained = 0;
    double dmaCommands = 0;
    double dmaRejects = 0;
    double macRxDrops = 0;
    double rxDrops = 0;
    double opHits = 0;
    double opMisses = 0;
    double lockAcquires = 0;
    double lockSpins = 0;
    double txFrames = 0;
    double rxFrames = 0;
    double rxOffered = 0;

    bool operator==(const Counters &) const = default;
};

constexpr double Counters::*counterFields[] = {
    &Counters::events,       &Counters::instructions,
    &Counters::coreCycles,   &Counters::stallCycles,
    &Counters::idlePolls,    &Counters::invocations,
    &Counters::orderingInstr, &Counters::spadAccesses,
    &Counters::spadConflict, &Counters::sdramBursts,
    &Counters::sdramChained, &Counters::dmaCommands,
    &Counters::dmaRejects,   &Counters::macRxDrops,
    &Counters::rxDrops,      &Counters::opHits,
    &Counters::opMisses,     &Counters::lockAcquires,
    &Counters::lockSpins,    &Counters::txFrames,
    &Counters::rxFrames,     &Counters::rxOffered,
};
static_assert(sizeof(counterFields) / sizeof(counterFields[0]) ==
                  sizeof(Counters) / sizeof(double),
              "every Counters field is listed");

/** @p acc += sign * @p o, field by field. */
void
accumulate(Counters &acc, const Counters &o, double sign)
{
    for (auto f : counterFields)
        acc.*f += sign * (o.*f);
}

Counters
readCounters(NicController &nic)
{
    const obs::StatGroup &t = nic.statTree();
    Counters c;
    c.events = static_cast<double>(nic.eventQueue().executedEvents());
    for (unsigned i = 0; i < nic.config().cores; ++i) {
        std::string p = "core" + std::to_string(i) + ".";
        c.instructions += t.value(p + "instructions");
        c.stallCycles += t.value(p + "loadStallCycles") +
            t.value(p + "conflictCycles") + t.value(p + "imissCycles");
        c.coreCycles += t.value(p + "executeCycles") +
            t.value(p + "imissCycles") + t.value(p + "loadStallCycles") +
            t.value(p + "conflictCycles") +
            t.value(p + "pipelineCycles") + t.value(p + "idleCycles");
        c.idlePolls += t.value(p + "idlePolls");
        c.invocations += t.value(p + "invocations");
    }
    for (const char *b :
         {"Send_Dispatch_and_Ordering", "Receive_Dispatch_and_Ordering",
          "Send_Locking", "Receive_Locking"})
        c.orderingInstr +=
            t.value(std::string("fw.") + b + ".instructions");
    c.spadAccesses = t.value("spad.accesses");
    c.spadConflict = t.value("spad.conflictCycles");
    c.sdramBursts = t.value("sdram.bursts");
    c.sdramChained = t.value("sdram.chainedBursts");
    c.dmaCommands =
        t.value("dmaRead.commands") + t.value("dmaWrite.commands");
    c.dmaRejects = t.value("dmaRead.fifo_full_rejects") +
        t.value("dmaWrite.fifo_full_rejects");
    c.macRxDrops = t.value("macRx.drops");
    c.rxDrops = t.value("link.rxDrops");
    if (t.findGroup("opcache")) {
        c.opHits = t.value("opcache.hits");
        c.opMisses = t.value("opcache.misses");
    }
    for (unsigned l = 0; l < numFwLocks; ++l) {
        std::string p = "fw.lock" + std::to_string(l) + ".";
        c.lockAcquires += t.value(p + "acquires");
        c.lockSpins += t.value(p + "spins");
    }
    c.txFrames = t.value("link.txFrames");
    c.rxFrames = t.value("link.rxFramesDelivered");
    c.rxOffered = t.value("traffic.rxOffered");
    return c;
}

/** Levels (not window deltas): must-stay-zero and cumulative ratios. */
struct Levels
{
    double materializations = 0;
    double icacheMissRatio = 0; //!< mean over cores, since construction
};

Levels
readLevels(NicController &nic)
{
    const obs::StatGroup &t = nic.statTree();
    Levels l;
    l.materializations = t.value("hostMem.materializations") +
        t.value("sdram.materializations");
    unsigned n = nic.config().cores;
    for (unsigned i = 0; i < n; ++i)
        l.icacheMissRatio +=
            t.value("core" + std::to_string(i) + ".icache.missRatio") / n;
    return l;
}

/** Every field of NicResults, printed exactly. */
std::string
fingerprint(const NicResults &r)
{
    std::ostringstream o;
    auto f = [&](double v) { o << num(v) << ','; };
    f(static_cast<double>(r.measuredTicks));
    for (double v : {r.txUdpGbps, r.rxUdpGbps, r.totalUdpGbps, r.txFps,
                     r.rxFps, r.aggregateIpc, r.spadGbps, r.sdramGbps,
                     r.imemGbps, r.imemUtilization})
        f(v);
    for (std::uint64_t v :
         {r.txFrames, r.rxFrames, r.rxDropped, r.errors, r.integrityErrors,
          r.orderGaps, r.orderDuplicates, r.flowsValidated})
        o << v << ',';
    for (double v : r.coreIpc)
        f(v);
    const CoreStats &c = r.coreTotals;
    for (std::uint64_t v :
         {c.instructions, c.executeCycles, c.imissCycles, c.loadStallCycles,
          c.conflictCycles, c.pipelineCycles, c.idleCycles, c.invocations,
          c.idlePolls})
        o << v << ',';
    for (const auto &b : r.profile.buckets)
        o << b.instructions << ',' << b.memAccesses << ',' << b.cycles
          << ',';
    const auto &l = r.rxLatency;
    o << l.count << ',';
    for (double v : {l.meanUs, l.p50Us, l.p95Us, l.p99Us, l.maxUs})
        f(v);
    return o.str();
}

// ---------------------------------------------------------------------
// Output checks

class Checks
{
  public:
    void
    require(bool ok, const std::string &what)
    {
        if (!ok && failures.size() < 32) {
            failures.push_back(what);
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
        allOk = allOk && ok;
    }

    bool ok() const { return allOk; }

  private:
    bool allOk = true;
    std::vector<std::string> failures;
};

/** Histogram span of the rx-latency tap (400 buckets of 250 ns); the
 *  last bucket also absorbs overflow, so a p99 inside it is clamped. */
constexpr double latencyRangeUs = 100.0;
constexpr double latencyBucketUs = 0.25;
constexpr std::uint64_t minLatencySamples = 1000;

void
checkNicResults(Checks &ck, const std::string &who, const NicResults &r)
{
    ck.require(r.errors == 0, who + ": validation errors");
    ck.require(r.integrityErrors == 0, who + ": integrity errors");
    ck.require(r.orderGaps == 0, who + ": sequence gaps");
    ck.require(r.orderDuplicates == 0, who + ": duplicated frames");
    ck.require(r.rxDropped == 0, who + ": rx or MAC drops");
    ck.require(r.rxLatency.p99Us < latencyRangeUs - latencyBucketUs,
               who + ": rx p99 not below the 100 us histogram range");
}

// ---------------------------------------------------------------------
// One repetition on a single NIC through the phase API.

struct NicRep
{
    NicResults res;
    std::string fp;       //!< results fingerprint + stat-tree JSON
    std::uint64_t finalEvents = 0;
    double constructS = 0, startS = 0, warmupS = 0, windowS = 0;
    double windowCpuS = 0, collectS = 0, statJsonS = 0, totalS = 0;
    double rssMb = 0;     //!< peak resident set during the repetition
    Counters delta;       //!< measured window
    Levels levels;
    std::vector<double> pending; //!< at every slice edge (traced)
};

NicRep
runNicRep(const Workload &w, SpanLog &log, int run)
{
    NicRep rep;
    bool traced = log.on();
    resetPeakRss();
    auto t0 = Clock::now();
    int root = log.open("repetition", "bench", -1, run);

    std::unique_ptr<NicController> nic;
    rep.constructS = timed(log, "NicController()", "nic", root, run, [&] {
        nic = std::make_unique<NicController>(w.nic);
    });
    rep.startS = timed(log, "startRun", "nic", root, run,
                       [&] { nic->startRun(); });
    EventQueue &eq = nic->eventQueue();
    rep.warmupS = timed(log, "runUntil(warmup)", "sim", root, run,
                        [&] { eq.runUntil(w.warmup); });
    nic->checkLiveness();
    timed(log, "beginMeasurement", "nic", root, run,
          [&] { nic->beginMeasurement(); });

    Tick end = w.warmup + w.window;
    Counters begin;
    if (traced)
        begin = readCounters(*nic);
    double cpu0 = cpuSeconds();
    if (!traced) {
        auto tw = Clock::now();
        eq.runUntil(end);
        rep.windowS = secondsSince(tw);
    } else {
        for (unsigned s = 0; s < w.slices; ++s) {
            Tick edge = w.warmup + w.window * (s + 1) / w.slices;
            rep.windowS += timed(log, "runUntil(slice)", "sim", root, run,
                                 [&] { eq.runUntil(edge); });
            rep.pending.push_back(static_cast<double>(eq.pendingEvents()));
            Counters c = readCounters(*nic);
            log.sample(run, s, eq.curTick(), eq.executedEvents(),
                       eq.pendingEvents(),
                       c.txFrames + c.rxFrames - begin.txFrames -
                           begin.rxFrames);
        }
    }
    rep.windowCpuS = cpuSeconds() - cpu0;
    nic->checkLiveness();
    if (traced) {
        rep.delta = readCounters(*nic);
        accumulate(rep.delta, begin, -1.0);
    }

    rep.collectS = timed(log, "endMeasurement", "nic", root, run,
                         [&] { rep.res = nic->endMeasurement(); });
    rep.collectS += timed(log, "stopRun", "nic", root, run,
                          [&] { nic->stopRun(); });
    std::string stat_json;
    rep.statJsonS =
        timed(log, "statTree().toJson()", "obs", root, run,
              [&] { stat_json = nic->statTree().toJson().dump(); });
    rep.levels = readLevels(*nic);
    rep.finalEvents = eq.executedEvents();
    rep.fp = fingerprint(rep.res) + "|" + stat_json + "|" +
        std::to_string(rep.finalEvents);
    nic.reset();
    log.close(root);
    rep.totalS = secondsSince(t0);
    rep.rssMb = peakRssMb();
    return rep;
}

/** The same workload through the one-call entry point. */
std::string
referenceNicRun(const Workload &w, SpanLog &log, int run)
{
    NicController nic(w.nic);
    NicResults r;
    timed(log, "NicController::run", "nic", -1, run,
          [&] { r = nic.run(w.warmup, w.window); });
    return fingerprint(r) + "|" + nic.statTree().toJson().dump() + "|" +
        std::to_string(nic.eventQueue().executedEvents());
}

// ---------------------------------------------------------------------
// One repetition of the fleet.

struct FleetRep
{
    FleetResults res;
    std::string fp; //!< per-node results, stat trees and wire hashes
    double constructS = 0, runS = 0, runCpuS = 0, reportS = 0;
    double rssMb = 0;
    unsigned threads = 0;
    Counters totals; //!< summed over nodes, whole run
    Levels levels;   //!< summed materializations, mean miss ratio
    std::vector<double> nodeEvents;
    double pendingMean = 0;
};

FleetRep
runFleetRep(const FleetConfig &fc, SpanLog &log, int run)
{
    FleetRep rep;
    rep.threads = fc.threads;
    resetPeakRss();
    int root = log.open("repetition", "bench", -1, run);
    std::unique_ptr<FleetRunner> fleet;
    rep.constructS = timed(log, "FleetRunner()", "fleet", root, run, [&] {
        fleet = std::make_unique<FleetRunner>(fc);
    });
    double cpu0 = cpuSeconds();
    rep.runS = timed(log, "FleetRunner::run", "fleet", root, run,
                     [&] { rep.res = fleet->run(); });
    rep.runCpuS = cpuSeconds() - cpu0;
    if (log.on()) {
        rep.reportS = timed(log, "FleetRunner::reportJson", "obs", root,
                            run, [&] { fleet->reportJson(rep.res).dump(); });
    }

    std::ostringstream fp;
    for (unsigned i = 0; i < fleet->size(); ++i) {
        NicController &nic = fleet->node(i);
        fp << fingerprint(rep.res.nic[i]) << '|'
           << nic.statTree().toJson().dump() << '|' << rep.res.wireHash[i]
           << ',' << rep.res.injectHash[i] << ','
           << nic.eventQueue().executedEvents() << '\n';
        accumulate(rep.totals, readCounters(nic), 1.0);
        Levels l = readLevels(nic);
        rep.levels.materializations += l.materializations;
        rep.levels.icacheMissRatio += l.icacheMissRatio / fleet->size();
        rep.nodeEvents.push_back(
            static_cast<double>(nic.eventQueue().executedEvents()));
        rep.pendingMean += static_cast<double>(
                               nic.eventQueue().pendingEvents()) /
            fleet->size();
    }
    const FleetResults &r = rep.res;
    // Frames the switch offered to receive MACs count as rx offers.
    rep.totals.rxOffered += r.crossDelivered + r.injectRejected;
    fp << r.framesForwarded << ',' << r.framesDropped << ','
       << r.injectRejected << ',' << num(r.switchLatencyMeanUs) << ','
       << num(r.switchLatencyP99Us) << ',' << r.windows << ','
       << r.eventsExecuted << ',' << r.crossDelivered;
    rep.fp = fp.str();
    fleet.reset();
    log.close(root);
    rep.rssMb = peakRssMb();
    return rep;
}

// ---------------------------------------------------------------------
// Metrics

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Frames offered and failed in a measured window (see ok_ratio). */
struct Ledger
{
    std::uint64_t offered = 0;
    std::uint64_t failed = 0;
};

Ledger
nicLedger(const NicResults &r)
{
    // Receive-side sequence gaps are the footprint of drops already
    // counted in rxDropped; errors holds every other failure class.
    Ledger l;
    l.failed = r.rxDropped + r.errors;
    l.offered = r.txFrames + r.rxFrames + r.rxDropped;
    return l;
}

Ledger
fleetLedger(const FleetResults &r)
{
    Ledger l;
    for (const NicResults &n : r.nic) {
        Ledger x = nicLedger(n);
        l.offered += x.offered;
        l.failed += x.failed;
    }
    l.failed += r.framesDropped + r.injectRejected + r.unaccountedLoss;
    l.offered += r.framesDropped;
    return l;
}

/** Per-layer metrics from window counter deltas.  @p core_frames is
 *  the frame count over the span the core/profile counters cover. */
void
layerMetrics(std::vector<Metric> &m, const Counters &d, double frames,
             double core_frames, double sim_us, double pending_mean,
             double host_ns_per_event, const Levels &lv,
             std::uint64_t flows, std::uint64_t latency_samples)
{
    auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m.push_back({"sim.events_per_sim_us", per(d.events, sim_us), "1/us"});
    m.push_back({"sim.host_ns_per_event", host_ns_per_event, "ns"});
    m.push_back({"sim.pending_events_mean", pending_mean, "count"});
    m.push_back({"sim.events_in_window", d.events, "count"});
    m.push_back({"proc.instructions_per_frame",
                 per(d.instructions, core_frames), "count"});
    m.push_back({"proc.ipc", per(d.instructions, d.coreCycles), "ratio"});
    m.push_back({"proc.idle_polls_per_frame", per(d.idlePolls, core_frames),
                 "count"});
    m.push_back({"proc.stall_cycle_share", per(d.stallCycles, d.coreCycles),
                 "ratio"});
    m.push_back({"proc.core_cycles", d.coreCycles, "count"});
    m.push_back({"mem.spad_accesses_per_frame", per(d.spadAccesses, frames),
                 "count"});
    m.push_back({"mem.spad_conflict_cycles_per_access",
                 per(d.spadConflict, d.spadAccesses), "ratio"});
    m.push_back({"mem.spad_accesses", d.spadAccesses, "count"});
    m.push_back({"mem.icache_miss_ratio", lv.icacheMissRatio, "ratio"});
    m.push_back({"mem.sdram_bursts_per_frame", per(d.sdramBursts, frames),
                 "count"});
    m.push_back({"mem.sdram_chained_ratio",
                 per(d.sdramChained, d.sdramBursts), "ratio"});
    m.push_back({"mem.sdram_bursts", d.sdramBursts, "count"});
    m.push_back({"mem.materializations", lv.materializations, "count"});
    m.push_back({"assist.dma_commands_per_frame", per(d.dmaCommands, frames),
                 "count"});
    m.push_back({"assist.dma_fifo_full_rejects", d.dmaRejects, "count"});
    m.push_back({"assist.mac_rx_drops", d.macRxDrops, "count"});
    m.push_back({"firmware.invocations_per_frame",
                 per(d.invocations, core_frames), "count"});
    m.push_back({"firmware.opcache_hit_ratio",
                 per(d.opHits, d.opHits + d.opMisses), "ratio"});
    m.push_back({"firmware.opcache_lookups", d.opHits + d.opMisses, "count"});
    m.push_back({"firmware.lock_spins_per_acquire",
                 per(d.lockSpins, d.lockAcquires), "ratio"});
    m.push_back({"firmware.lock_acquires", d.lockAcquires, "count"});
    m.push_back({"firmware.ordering_instr_share",
                 per(d.orderingInstr, d.instructions), "ratio"});
    m.push_back({"traffic.frames_per_sim_ms", per(frames, sim_us / 1e3),
                 "1/ms"});
    m.push_back({"traffic.frames_in_window", frames, "count"});
    m.push_back({"traffic.flows_validated", static_cast<double>(flows),
                 "count"});
    m.push_back({"host.rx_delivered_ratio", per(d.rxFrames, d.rxOffered),
                 "ratio"});
    m.push_back({"nic.rx_latency_samples",
                 static_cast<double>(latency_samples), "count"});
}

void
printResult(bool correct, const Ledger &l, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("  %-40s %20s %s\n", m.name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());
    std::string out = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                  l.offered, 1)) +
        ", \"failed\": " + std::to_string(l.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + std::string("\"") + ms[i].name +
            "\": {\"value\": " + num(ms[i].value) + ", \"unit\": \"" +
            ms[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------
// Workload runners

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans;
};

constexpr unsigned minReps = 3;

void
writeSpans(const SpanLog &log, const std::string &path)
{
    if (!log.on() || path.empty())
        return;
    std::ofstream out(path);
    log.toJson().write(out, 1);
    fatal_if(!out, "cannot write span file ", path);
    std::printf("spans written to %s\n", path.c_str());
}

int
runNic(const Workload &w, const Args &a)
{
    Checks ck;
    Ledger ledger;
    SpanLog quiet(false);
    SpanLog log(a.trace);
    std::vector<NicRep> plain, traced;
    std::string ref_fp;

    auto t0 = Clock::now();
    for (int run = 0;
         plain.size() < minReps || secondsSince(t0) < a.seconds; ++run) {
        plain.push_back(runNicRep(w, quiet, run));
        if (a.trace)
            traced.push_back(runNicRep(w, log, run));
    }
    if (a.trace)
        ref_fp = referenceNicRun(w, log, -1);

    const NicRep &first = plain.front();
    for (const auto *set : {&plain, &traced}) {
        for (const NicRep &r : *set) {
            checkNicResults(ck, w.name, r.res);
            ck.require(r.fp == first.fp,
                       w.name + ": repetition results differ (determinism)");
            ck.require(r.levels.materializations == 0,
                       w.name + ": overlay materializations");
            Ledger l = nicLedger(r.res);
            ledger.offered += l.offered;
            ledger.failed += l.failed;
        }
    }
    if (a.trace)
        ck.require(ref_fp == first.fp,
                   w.name + ": phase-API results differ from run()");
    const NicResults &res = first.res;
    ck.require(res.rxLatency.count >= minLatencySamples,
               w.name + ": fewer than 1000 rx latency samples");
    if (w.lineRateGbps > 0)
        ck.require(std::fabs(res.totalUdpGbps - w.lineRateGbps) <=
                       0.01 * w.lineRateGbps,
                   w.name + ": goodput not within 1% of the line rate");

    double sim_us = static_cast<double>(w.window) / tickPerUs;
    std::vector<Metric> ms;
    std::printf("workload %s seed %llu: %zu repetitions of %.0f sim-us, "
                "rx latency samples %llu, results digest %016llx\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                plain.size(), sim_us,
                static_cast<unsigned long long>(res.rxLatency.count),
                static_cast<unsigned long long>(digest(first.fp)));
    if (!a.trace) {
        std::vector<double> speed, cpu, setup, rss;
        for (const NicRep &r : plain) {
            speed.push_back(sim_us / r.windowS);
            cpu.push_back(r.windowCpuS / (sim_us / 1e3));
            setup.push_back(r.constructS + r.startS);
            rss.push_back(r.rssMb);
        }
        Ledger l = nicLedger(res);
        printSpread("sim_us_per_s", speed);
        ms = {{"sim_us_per_s", quantile(speed, slowTail), "us/s"},
              {"cpu_s_per_sim_ms", quantile(cpu, 1 - slowTail), "s/ms"},
              {"setup_s", median(setup), "s"},
              {"peak_rss_mb", median(rss), "MB"},
              {"nic_gbps", res.totalUdpGbps, "Gb/s"},
              {"nic_rx_p50_us", res.rxLatency.p50Us, "sim_us"},
              {"nic_rx_p99_us", res.rxLatency.p99Us, "sim_us"},
              {"ok_ratio",
               l.offered ? double(l.offered - l.failed) / l.offered : 0.0,
               "ratio"}};
    } else {
        std::vector<double> ns_per_event, construct, start, warm, collect,
            json, tr_total, plain_total;
        for (const NicRep &r : traced) {
            ns_per_event.push_back(r.windowS * 1e9 / r.delta.events);
            construct.push_back(r.constructS);
            start.push_back(r.startS);
            warm.push_back(r.warmupS);
            collect.push_back(r.collectS);
            json.push_back(r.statJsonS);
            tr_total.push_back(r.totalS);
            ck.require(r.delta == traced.front().delta,
                       w.name + ": layer counters differ between runs");
        }
        for (const NicRep &r : plain)
            plain_total.push_back(r.totalS);
        const NicRep &t = traced.front();
        double frames = t.delta.txFrames + t.delta.rxFrames;
        double pending = 0;
        for (double p : t.pending)
            pending += p / t.pending.size();
        layerMetrics(ms, t.delta, frames, frames, sim_us, pending,
                     median(ns_per_event), t.levels, res.flowsValidated,
                     res.rxLatency.count);
        ms.push_back({"nic.construct_s", median(construct), "s"});
        ms.push_back({"nic.start_s", median(start), "s"});
        ms.push_back({"nic.warmup_s", median(warm), "s"});
        ms.push_back({"nic.collect_s", median(collect), "s"});
        ms.push_back({"obs.stat_json_s", median(json), "s"});
        // No fleet on this workload: its metrics read 0.
        for (auto [f, unit] : std::initializer_list<
                 std::pair<const char *, const char *>>{
                 {"fleet.construct_s", "s"},
                 {"fleet.threaded_sim_us_per_s", "us/s"},
                 {"fleet.cpu_parallelism", "ratio"},
                 {"fleet.parallel_efficiency", "ratio"},
                 {"fleet.events_per_window", "count"},
                 {"fleet.node_events_max_over_mean", "ratio"},
                 {"fleet.max_concurrent_workers", "count"},
                 {"fleet.switch_drops", "count"},
                 {"fleet.switch_p99_us", "sim_us"}})
            ms.push_back({f, 0.0, unit});
        ms.push_back({"bench.trace_overhead_share",
                      median(tr_total) / median(plain_total) - 1.0,
                      "ratio"});
    }
    writeSpans(log, a.spans);
    printResult(ck.ok(), ledger, ms);
    return ck.ok() ? 0 : 1;
}

int
runFleet(const Workload &w, const Args &a)
{
    Checks ck;
    Ledger ledger;
    SpanLog quiet(false);
    SpanLog log(a.trace);
    // The timed end-to-end repetitions run the fleet on one thread.  On
    // a 4-vCPU virtual machine the hypervisor steals time from busy
    // vCPUs, and every sync window waits for the slowest worker, so a
    // 3-thread run() swings 2-3x from minute to minute (README.md).
    // The threaded fleet runs in the traced mode, where its results
    // must match the 1-thread run byte for byte.
    FleetConfig serial = makeFleet(w, a.seed, 1);
    FleetConfig threaded = makeFleet(w, a.seed, w.fleetThreads);
    std::vector<FleetRep> plain, parallel, traced;

    auto t0 = Clock::now();
    for (int run = 0;
         plain.size() < minReps || secondsSince(t0) < a.seconds; ++run) {
        plain.push_back(runFleetRep(serial, quiet, run));
        if (a.trace) {
            parallel.push_back(runFleetRep(threaded, quiet, run));
            traced.push_back(runFleetRep(threaded, log, run));
        }
    }
    if (a.trace)
        plain.push_back(runFleetRep(serial, log, -1));

    const FleetRep &first = plain.front();
    for (const auto *set : {&plain, &parallel, &traced}) {
        for (const FleetRep &r : *set) {
            const FleetResults &res = r.res;
            for (unsigned i = 0; i < res.nic.size(); ++i)
                checkNicResults(ck, w.name + " node " + std::to_string(i),
                                res.nic[i]);
            ck.require(res.errors == 0, w.name + ": validation errors");
            ck.require(res.unaccountedLoss == 0,
                       w.name + ": unaccounted loss");
            ck.require(res.framesDropped == 0, w.name + ": switch drops");
            ck.require(res.injectRejected == 0,
                       w.name + ": inject rejects");
            ck.require(r.totals.macRxDrops == 0, w.name + ": MAC rx drops");
            ck.require(r.levels.materializations == 0,
                       w.name + ": overlay materializations");
            ck.require(res.maxConcurrentWorkers == r.threads,
                       w.name + ": max concurrent workers != threads");
            ck.require(r.fp == first.fp,
                       w.name + ": fleet results differ between runs or "
                                "thread counts");
            Ledger l = fleetLedger(res);
            ledger.offered += l.offered;
            ledger.failed += l.failed;
        }
    }

    const FleetResults &res = first.res;
    double p50 = 0, p99 = 0;
    std::uint64_t samples = ~0ULL;
    for (const NicResults &n : res.nic) {
        p50 = std::max(p50, n.rxLatency.p50Us);
        p99 = std::max(p99, n.rxLatency.p99Us);
        samples = std::min(samples, n.rxLatency.count);
    }
    ck.require(samples >= minLatencySamples,
               w.name + ": fewer than 1000 rx latency samples on a node");

    double sim_us = static_cast<double>(w.warmup + w.window) / tickPerUs;
    std::printf("workload %s seed %llu: %zu repetitions of %.0f sim-us on "
                "%u nodes, min rx latency samples %llu, results digest "
                "%016llx\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                plain.size(), sim_us, w.fleetNodes,
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(digest(first.fp)));
    std::vector<Metric> ms;
    std::vector<double> speed, cpu, setup, rss, serial_s;
    for (const FleetRep &r : plain) {
        speed.push_back(sim_us / r.runS);
        cpu.push_back(r.runCpuS / (sim_us / 1e3));
        setup.push_back(r.constructS);
        rss.push_back(r.rssMb);
        serial_s.push_back(r.runS);
    }
    if (!a.trace) {
        Ledger l = fleetLedger(res);
        printSpread("sim_us_per_s", speed);
        ms = {{"sim_us_per_s", quantile(speed, slowTail), "us/s"},
              {"cpu_s_per_sim_ms", quantile(cpu, 1 - slowTail), "s/ms"},
              {"setup_s", median(setup), "s"},
              {"peak_rss_mb", median(rss), "MB"},
              {"nic_gbps", res.aggTotalGbps, "Gb/s"},
              {"nic_rx_p50_us", p50, "sim_us"},
              {"nic_rx_p99_us", p99, "sim_us"},
              {"ok_ratio",
               l.offered ? double(l.offered - l.failed) / l.offered : 0.0,
               "ratio"}};
    } else {
        std::vector<double> ns_per_event, construct, par, run_s, tr_total,
            par_total;
        for (const FleetRep &r : traced) {
            ns_per_event.push_back(r.runS * 1e9 / r.totals.events);
            construct.push_back(r.constructS);
            tr_total.push_back(r.constructS + r.runS);
        }
        for (const FleetRep &r : parallel) {
            par.push_back(r.runCpuS / r.runS);
            run_s.push_back(r.runS);
            par_total.push_back(r.constructS + r.runS);
        }
        const FleetRep &t = traced.front();
        double window_frames = 0;
        std::uint64_t flows = 0;
        for (const NicResults &n : res.nic) {
            window_frames += n.txFrames + n.rxFrames;
            flows += n.flowsValidated;
        }
        double frames = t.totals.txFrames + t.totals.rxFrames;
        layerMetrics(ms, t.totals, frames, window_frames, sim_us,
                     t.pendingMean, median(ns_per_event), t.levels, flows,
                     samples);
        // FleetRunner builds and starts its NICs inside its own calls,
        // so the per-NIC phase timings read 0 here.
        for (const char *f : {"nic.construct_s", "nic.start_s",
                              "nic.warmup_s", "nic.collect_s"})
            ms.push_back({f, 0.0, "s"});
        ms.push_back({"obs.stat_json_s", t.reportS, "s"});
        double mean_events = 0, max_events = 0;
        for (double e : t.nodeEvents) {
            mean_events += e / t.nodeEvents.size();
            max_events = std::max(max_events, e);
        }
        ms.push_back({"fleet.construct_s", median(construct), "s"});
        ms.push_back({"fleet.threaded_sim_us_per_s",
                      sim_us / median(run_s), "us/s"});
        ms.push_back({"fleet.cpu_parallelism", median(par), "ratio"});
        ms.push_back({"fleet.parallel_efficiency",
                      median(serial_s) / (w.fleetThreads * median(run_s)),
                      "ratio"});
        ms.push_back({"fleet.events_per_window",
                      t.totals.events / static_cast<double>(res.windows),
                      "count"});
        ms.push_back({"fleet.node_events_max_over_mean",
                      max_events / mean_events, "ratio"});
        ms.push_back({"fleet.max_concurrent_workers",
                      static_cast<double>(t.res.maxConcurrentWorkers),
                      "count"});
        ms.push_back({"fleet.switch_drops",
                      static_cast<double>(res.framesDropped), "count"});
        ms.push_back({"fleet.switch_p99_us", res.switchLatencyP99Us,
                      "sim_us"});
        ms.push_back({"bench.trace_overhead_share",
                      median(tr_total) / median(par_total) - 1.0,
                      "ratio"});
    }
    writeSpans(log, a.spans);
    printResult(ck.ok(), ledger, ms);
    return ck.ok() ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char *endp = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &endp, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &endp);
        } else if (k == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else if (k == "--spans") {
            a.spans = v;
        } else {
            return false;
        }
        if (endp && *endp)
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: nicbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n");
        return 2;
    }
    Workload w;
    if (!makeWorkload(a.workload, a.seed, w)) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    try {
        return w.fleet ? runFleet(w, a) : runNic(w, a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nicbench: %s\n", e.what());
        return 1;
    }
}
