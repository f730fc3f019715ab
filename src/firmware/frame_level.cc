#include "frame_level.hh"

#include "firmware/calibration.hh"

namespace tengig {

FrameLevelDispatcher::FrameLevelDispatcher(FwTasks &tasks_)
    : tasks(tasks_)
{
    FwState &st = tasks.st();
    // Completion-side work first (drains the pipeline), intake last.
    checks = {
        {true, st.counterAddr(FwState::CtrTxCmdsCompleted),
         &FwTasks::processTxDmaReady, &FwTasks::tryProcessTxDma},
        {false, st.counterAddr(FwState::CtrRxCmdsCompleted),
         &FwTasks::processRxDmaReady, &FwTasks::tryProcessRxDma},
        {true, st.counterAddr(FwState::CtrMacTxDone),
         &FwTasks::processTxCompleteReady,
         &FwTasks::tryProcessTxComplete},
        {false, st.counterAddr(FwState::CtrMacRxStored),
         &FwTasks::recvFrameReady, &FwTasks::tryRecvFrame},
        {true, st.counterAddr(FwState::CtrTxBdArrived),
         &FwTasks::sendFrameReady, &FwTasks::trySendFrame},
        {false, st.counterAddr(FwState::CtrHostRecvBds),
         &FwTasks::fetchRecvBdReady, &FwTasks::tryFetchRecvBd},
        {true, st.counterAddr(FwState::CtrHostPostedBds),
         &FwTasks::fetchSendBdReady, &FwTasks::tryFetchSendBd},
    };
}

void
FrameLevelDispatcher::next(unsigned core_id, OpList &out)
{
    // Rotate the scan start point so cores do not converge on the same
    // queue, and so successive polls by one core cover all sources.
    const std::size_t n = checks.size();
    unsigned start = (core_id + rotate++) % n;
    // Pure predicate scan: which check will claim work this pass
    // (j == n means a full empty-handed pass).
    std::size_t j = n;
    for (std::size_t i = 0; i < n; ++i) {
        if ((tasks.*(checks[(start + i) % n].ready))()) {
            j = i;
            break;
        }
    }

    // Tag at service entry: the recorder opens in the first scanned
    // check's dispatch bucket, never Idle.
    const Check &c0 = checks[start];
    OpRecorder rec(out, c0.isTx ? FuncTag::SendDispatch
                                : FuncTag::RecvDispatch);
    bool worked = false;
    std::size_t limit = j < n ? j + 1 : n;
    for (std::size_t i = 0; i < limit; ++i) {
        const Check &c = checks[(start + i) % n];
        // Poll cost: inspect the progress pointer.
        rec.tag(c.isTx ? FuncTag::SendDispatch : FuncTag::RecvDispatch);
        rec.load(c.pollAddr);
        rec.alu(cal::dispatchCheckAlu);
        if (i == j) {
            worked = (tasks.*(c.run))(rec);
            panic_if(!worked, "[fw dispatch] check ", i,
                     " was ready but refused work");
        }
    }

    if (!worked) {
        // Nothing anywhere: the whole pass was an idle poll.
        for (auto &op : out.ops)
            op.tag = FuncTag::Idle;
        out.idlePoll = true;
        ++idle;
    } else {
        ++found;
    }
}

} // namespace tengig
