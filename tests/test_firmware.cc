/**
 * @file
 * Firmware-level tests: pipeline-counter invariants, ordering
 * machinery, lock accounting, event-register serialization, and
 * quiescence, exercised through small end-to-end runs.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "firmware/event_register.hh"
#include "nic/controller.hh"

using namespace tengig;

namespace {

NicConfig
smallConfig()
{
    NicConfig cfg;
    cfg.cores = 4;
    cfg.cpuMhz = 200.0;
    return cfg;
}

/** Check every monotonic stage-ordering invariant of the TX pipeline. */
void
checkTxInvariants(const FwState &st)
{
    EXPECT_LE(st.txBdFetchIssuedBds, st.hostPostedBds);
    EXPECT_LE(st.txBdArrivedBds, st.txBdFetchIssuedBds);
    EXPECT_LE(st.txClaimedFrames, st.txBdArrivedFrames());
    EXPECT_LE(st.txCmdsCompleted, st.txCmdsPushed);
    EXPECT_LE(st.txDmaProcessed, st.txCmdsCompleted);
    EXPECT_LE(st.txOrderedReady, st.txDmaProcessed);
    EXPECT_LE(st.txMacEnqueued, st.txOrderedReady);
    EXPECT_LE(st.macTxDone, st.txMacEnqueued);
    EXPECT_LE(st.txComplProcessed, st.macTxDone);
}

void
checkRxInvariants(const FwState &st)
{
    EXPECT_LE(st.rxBdFetchIssuedBds, st.hostRecvBdsPosted);
    EXPECT_LE(st.rxBdArrivedBds, st.rxBdFetchIssuedBds);
    EXPECT_LE(st.rxBdConsumedBds, st.rxBdArrivedBds);
    EXPECT_LE(st.macRxStored, st.macRxAllocated);
    EXPECT_LE(st.rxClaimedFrames, st.macRxStored);
    EXPECT_LE(st.rxCmdsCompleted, st.rxCmdsPushed);
    EXPECT_LE(st.rxDmaProcessed, st.rxCmdsCompleted);
    EXPECT_LE(st.rxOrderedReady, st.rxDmaProcessed);
    EXPECT_LE(st.rxCommitted, st.rxOrderedReady);
    EXPECT_LE(st.rxSlotsFreed, st.rxCommitted);
}

} // namespace

TEST(FirmwarePipeline, TxCountersRespectStageOrderThroughout)
{
    NicController nic(smallConfig());
    nic.deviceDriver().postSendFrames(300);
    auto &eq = nic.eventQueue();
    // Sample invariants repeatedly while the pipeline runs.
    for (int i = 0; i < 40; ++i) {
        eq.runUntil(eq.curTick() + 20 * tickPerUs);
        checkTxInvariants(nic.firmwareState());
    }
}

TEST(FirmwarePipeline, DrainsToQuiescenceAfterFiniteWork)
{
    NicController nic(smallConfig());
    nic.runTxOnly(200, 50 * tickPerMs);
    const FwState &st = nic.firmwareState();
    EXPECT_EQ(st.macTxDone, 200u);
    EXPECT_EQ(st.txComplProcessed, 200u);
    EXPECT_EQ(st.txOrderedReady, 200u);
    checkTxInvariants(st);
    // All locks released, commit roles free, reservations returned.
    for (unsigned l = 0; l < numFwLocks; ++l)
        EXPECT_FALSE(st.lockHeld[l]) << "lock " << l;
    EXPECT_FALSE(st.txCommitBusy);
    EXPECT_FALSE(st.rxCommitBusy);
    EXPECT_EQ(st.dmaReadReserved, 0u);
    EXPECT_EQ(st.macTxReserved, 0u);
}

TEST(FirmwarePipeline, RxDrainsAndFreesSlots)
{
    NicController nic(smallConfig());
    nic.runRxOnly(300, 50 * tickPerMs);
    const FwState &st = nic.firmwareState();
    EXPECT_EQ(st.rxCommitted, 300u);
    EXPECT_EQ(st.rxSlotsFreed, 300u);
    checkRxInvariants(st);
    EXPECT_EQ(st.dmaWriteReserved, 0u);
}

TEST(FirmwareOrdering, StatusFlagsAllClearedAfterDrain)
{
    NicController nic(smallConfig());
    nic.runTxOnly(500, 50 * tickPerMs);
    const FwState &st = nic.firmwareState();
    auto &storage = nic.scratchpad().storage();
    for (unsigned w = 0; w < st.flagBits / 32; ++w) {
        EXPECT_EQ(storage.loadWord(st.txFlagBase + 4 * w), 0u)
            << "tx flag word " << w;
    }
}

TEST(FirmwareOrdering, LocksAreActuallyContended)
{
    // At line rate with 6 cores the dispatch locks must show real
    // acquisitions; contention (spins) may be low but the machinery
    // must be exercised.
    NicConfig cfg;
    cfg.cores = 6;
    NicController nic(cfg);
    nic.run(tickPerMs, tickPerMs);
    const FwState &st = nic.firmwareState();
    EXPECT_GT(st.lockAcquires[static_cast<unsigned>(
                  FwLock::SendDispatch)], 1000u);
    EXPECT_GT(st.lockAcquires[static_cast<unsigned>(
                  FwLock::RecvDispatch)], 1000u);
    EXPECT_GT(st.lockAcquires[static_cast<unsigned>(FwLock::TxFlag)],
              1000u);
    EXPECT_GT(st.lockAcquires[static_cast<unsigned>(FwLock::RxBdPop)],
              1000u);
}

TEST(FirmwareOrdering, RmwModeUsesNoFlagLocks)
{
    NicConfig cfg;
    cfg.cores = 6;
    cfg.firmware.rmwEnhanced = true;
    NicController nic(cfg);
    nic.run(tickPerMs, tickPerMs);
    const FwState &st = nic.firmwareState();
    EXPECT_EQ(st.lockAcquires[static_cast<unsigned>(FwLock::TxFlag)],
              0u);
    EXPECT_EQ(st.lockAcquires[static_cast<unsigned>(FwLock::TxOrder)],
              0u);
    EXPECT_EQ(st.lockAcquires[static_cast<unsigned>(FwLock::RxFlag)],
              0u);
    EXPECT_EQ(st.lockAcquires[static_cast<unsigned>(FwLock::RxOrder)],
              0u);
    // The receive-path pop lock remains (the paper's contended one).
    EXPECT_GT(st.lockAcquires[static_cast<unsigned>(FwLock::RxBdPop)],
              1000u);
}

TEST(FirmwareOrdering, IdealModeRecordsNoOverheadBuckets)
{
    NicConfig cfg;
    cfg.cores = 1;
    cfg.cpuMhz = 800.0;
    cfg.firmware.idealMode = true;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs, tickPerMs);
    EXPECT_EQ(r.profile[FuncTag::SendLock].instructions, 0u);
    EXPECT_EQ(r.profile[FuncTag::RecvLock].instructions, 0u);
    EXPECT_GT(r.profile[FuncTag::SendFrame].instructions, 0u);
}

TEST(FirmwareBatching, BdFetchesAreBatched)
{
    NicController nic(smallConfig());
    nic.runTxOnly(320, 50 * tickPerMs);
    const FwState &st = nic.firmwareState();
    // 320 frames = 640 BDs; batches of up to 32 BDs -> at least 20
    // fetch DMAs, but far fewer than one per frame.
    EXPECT_GE(st.invFetchSendBd, 20u);
    EXPECT_LT(st.invFetchSendBd, 100u);
}

TEST(EventRegisterFirmware, SerializesTypesButStaysCorrect)
{
    NicConfig cfg = smallConfig();
    cfg.taskLevelFirmware = true;
    NicController nic(cfg);
    nic.runTxOnly(200, 50 * tickPerMs);
    EXPECT_EQ(nic.txFlowSink().framesReceived(), 200u);
    EXPECT_EQ(nic.txFlowSink().gapErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().duplicateErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().integrityErrors(), 0u);
}

TEST(EventRegisterFirmware, DuplexCorrectnessUnderLoad)
{
    NicConfig cfg = smallConfig();
    cfg.taskLevelFirmware = true;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs, 2 * tickPerMs);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.totalUdpGbps, 1.0);
}

TEST(DeferredSegmentation, TsoDeliversEverySegmentInOrder)
{
    // One descriptor pair per 8 frames: the NIC must slice the large
    // buffer into correct, individually validatable frames.
    NicConfig cfg = smallConfig();
    cfg.firmware.tsoSegments = 8;
    NicController nic(cfg);
    nic.runTxOnly(160, 50 * tickPerMs);
    EXPECT_EQ(nic.txFlowSink().framesReceived(), 160u);
    EXPECT_EQ(nic.txFlowSink().integrityErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().gapErrors(), 0u);
    EXPECT_EQ(nic.txFlowSink().duplicateErrors(), 0u);
    EXPECT_EQ(nic.deviceDriver().txFramesConsumed(), 160u);
}

TEST(DeferredSegmentation, TsoSavesFetchBdWork)
{
    auto fetch_instr_per_frame = [](unsigned segs) {
        NicConfig cfg;
        cfg.cores = 6;
        cfg.firmware.tsoSegments = segs;
        NicController nic(cfg);
        NicResults r = nic.run(tickPerMs, tickPerMs);
        return r.profile[FuncTag::FetchSendBd].instructions /
               static_cast<double>(r.txFrames);
    };
    double base = fetch_instr_per_frame(1);
    double tso8 = fetch_instr_per_frame(8);
    EXPECT_LT(tso8, 0.5 * base);
}

TEST(DeferredSegmentation, DuplexTsoHasNoErrors)
{
    NicConfig cfg = smallConfig();
    cfg.cores = 6;
    cfg.firmware.tsoSegments = 4;
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs, 2 * tickPerMs);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_GT(r.totalUdpGbps, 18.0);
}

// ---------------------------------------------------------------------
// Profile attribution: dispatch prologue work (poll loads, claim
// checks) must be charged to the dispatching function's bucket, never
// to Idle.  A regression here (the recorder opening under FuncTag::Idle
// and tagging at dispatch instead of at service entry) inflates the
// Idle bucket by a fixed amount per successful dispatch, which the
// calibrated identity below catches in either firmware mode.
// ---------------------------------------------------------------------

namespace {

/** Instructions per empty-handed poll stream, calibrated on a run
 *  whose single offered frame arrives after the window closes: every
 *  poll is an idle scan. */
double
idleScanCost(NicConfig cfg)
{
    cfg.rxOfferedRate = 0.0001; // first frame lands ~12 ms out
    NicController nic(cfg);
    NicResults r = nic.runRxOnly(1, tickPerMs / 4);
    double polls = static_cast<double>(r.coreTotals.idlePolls);
    double instr =
        static_cast<double>(r.profile[FuncTag::Idle].instructions);
    EXPECT_GT(polls, 100.0);
    // The scan shape is constant, so the per-poll cost is an integer
    // (up to the partial streams in flight at the cutoff).
    return std::round(instr / polls);
}

void
checkIdleAttribution(bool task_level)
{
    NicConfig cfg;
    cfg.cores = 4;
    cfg.taskLevelFirmware = task_level;
    double k = idleScanCost(cfg);
    EXPECT_GE(k, 1.0);

    // Loaded duplex window: Idle instructions must equal the idle-poll
    // count times the calibrated scan cost -- dispatches contribute
    // nothing.  The slack covers streams cut by the window edges.
    NicController nic(cfg);
    NicResults r = nic.run(tickPerMs / 2, tickPerMs);
    double expect = static_cast<double>(r.coreTotals.idlePolls) * k;
    double slack = k * (2.0 * cfg.cores + 4.0);
    EXPECT_NEAR(static_cast<double>(
                    r.profile[FuncTag::Idle].instructions),
                expect, slack)
        << "idlePolls=" << r.coreTotals.idlePolls << " k=" << k;
}

} // namespace

TEST(ProfileAttribution, FrameLevelDispatchChargesNothingToIdle)
{
    checkIdleAttribution(false);
}

TEST(ProfileAttribution, EventRegisterDispatchChargesNothingToIdle)
{
    checkIdleAttribution(true);
}
