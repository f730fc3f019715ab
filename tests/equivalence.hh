/**
 * @file
 * Shared bit-identity comparator for the simulator's equivalence
 * contracts.
 *
 * Several tests claim that two runs are the *same* execution, not
 * tolerance-close ones: a repeated run, the threaded sweep runner,
 * fleet nodes across thread counts, a fleet node against the
 * standalone controller, and a traced run against an untraced one.
 * They all compare the same surfaces:
 *
 *   - NicResults field by field (exact, including doubles),
 *   - the registered stat tree serialized to JSON,
 *   - the Chrome trace-event timeline (lane names, every span,
 *     instant, and counter sample).
 */

#ifndef TENGIG_TESTS_EQUIVALENCE_HH
#define TENGIG_TESTS_EQUIVALENCE_HH

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "nic/controller.hh"
#include "obs/trace_log.hh"

namespace tengig {
namespace equiv {

inline void
expectIdenticalCoreStats(const CoreStats &a, const CoreStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.executeCycles, b.executeCycles);
    EXPECT_EQ(a.imissCycles, b.imissCycles);
    EXPECT_EQ(a.loadStallCycles, b.loadStallCycles);
    EXPECT_EQ(a.conflictCycles, b.conflictCycles);
    EXPECT_EQ(a.pipelineCycles, b.pipelineCycles);
    EXPECT_EQ(a.idleCycles, b.idleCycles);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.idlePolls, b.idlePolls);
}

/** Every NicResults field, exactly. */
inline void
expectIdenticalResults(const NicResults &a, const NicResults &b)
{
    EXPECT_EQ(a.measuredTicks, b.measuredTicks);
    EXPECT_EQ(a.txUdpGbps, b.txUdpGbps);
    EXPECT_EQ(a.rxUdpGbps, b.rxUdpGbps);
    EXPECT_EQ(a.totalUdpGbps, b.totalUdpGbps);
    EXPECT_EQ(a.txFps, b.txFps);
    EXPECT_EQ(a.rxFps, b.rxFps);
    EXPECT_EQ(a.txFrames, b.txFrames);
    EXPECT_EQ(a.rxFrames, b.rxFrames);
    EXPECT_EQ(a.rxDropped, b.rxDropped);
    EXPECT_EQ(a.errors, b.errors);
    EXPECT_EQ(a.integrityErrors, b.integrityErrors);
    EXPECT_EQ(a.orderGaps, b.orderGaps);
    EXPECT_EQ(a.orderDuplicates, b.orderDuplicates);
    EXPECT_EQ(a.flowsValidated, b.flowsValidated);
    EXPECT_EQ(a.aggregateIpc, b.aggregateIpc);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    expectIdenticalCoreStats(a.coreTotals, b.coreTotals);

    for (std::size_t i = 0; i < numFuncTags; ++i) {
        FuncTag t = static_cast<FuncTag>(i);
        SCOPED_TRACE(funcTagName(t));
        EXPECT_EQ(a.profile[t].instructions, b.profile[t].instructions);
        EXPECT_EQ(a.profile[t].memAccesses, b.profile[t].memAccesses);
        EXPECT_EQ(a.profile[t].cycles, b.profile[t].cycles);
    }

    EXPECT_EQ(a.rxLatency.count, b.rxLatency.count);
    EXPECT_EQ(a.rxLatency.meanUs, b.rxLatency.meanUs);
    EXPECT_EQ(a.rxLatency.p50Us, b.rxLatency.p50Us);
    EXPECT_EQ(a.rxLatency.p95Us, b.rxLatency.p95Us);
    EXPECT_EQ(a.rxLatency.p99Us, b.rxLatency.p99Us);
    EXPECT_EQ(a.rxLatency.maxUs, b.rxLatency.maxUs);

    EXPECT_EQ(a.spadGbps, b.spadGbps);
    EXPECT_EQ(a.sdramGbps, b.sdramGbps);
    EXPECT_EQ(a.imemGbps, b.imemGbps);
    EXPECT_EQ(a.imemUtilization, b.imemUtilization);
}

/** One finished run: results plus the serialized stat tree and trace. */
struct RunSnapshot
{
    NicResults res;
    std::string stats;   //!< stat tree as pretty JSON
    std::string trace;   //!< Chrome trace document ("" when untraced)
    std::uint64_t executedEvents = 0;
};

/** Capture @p nic after a run that produced @p res. */
inline RunSnapshot
snapshot(NicController &nic, const NicResults &res,
         const obs::TraceLog *log = nullptr)
{
    RunSnapshot s;
    s.res = res;
    s.stats = nic.statTree().toJson().dump(2);
    if (log)
        s.trace = log->str();
    s.executedEvents = nic.eventQueue().executedEvents();
    return s;
}

/** Build @p cfg and run(warmup, measure), optionally traced. */
inline RunSnapshot
runSnapshot(const NicConfig &cfg, Tick warmup, Tick measure,
            bool traced = true)
{
    NicController nic(cfg);
    obs::TraceLog log;
    if (traced)
        nic.attachTrace(log);
    NicResults res = nic.run(warmup, measure);
    return snapshot(nic, res, traced ? &log : nullptr);
}

/**
 * Results, stat tree and trace byte-identical.  Host event counts are
 * left to the caller: a traced run executes extra sampler events.
 */
inline void
expectIdenticalRuns(const RunSnapshot &a, const RunSnapshot &b)
{
    expectIdenticalResults(a.res, b.res);
    EXPECT_EQ(a.stats, b.stats) << "stat tree diverged";
    EXPECT_EQ(a.trace, b.trace) << "event timeline diverged";
}

} // namespace equiv
} // namespace tengig

#endif // TENGIG_TESTS_EQUIVALENCE_HH
