#include "event_register.hh"

#include "firmware/calibration.hh"

namespace tengig {

EventRegisterDispatcher::EventRegisterDispatcher(FwTasks &tasks_,
                                                 unsigned max_cores,
                                                 unsigned max_passes)
    : tasks(tasks_), owned(max_cores, -1),
      maxPasses(max_passes)
{
    types = {
        {true, &FwTasks::processTxDmaReady, &FwTasks::tryProcessTxDma},
        {false, &FwTasks::processRxDmaReady, &FwTasks::tryProcessRxDma},
        {true, &FwTasks::processTxCompleteReady,
         &FwTasks::tryProcessTxComplete},
        {false, &FwTasks::recvFrameReady, &FwTasks::tryRecvFrame},
        {true, &FwTasks::sendFrameReady, &FwTasks::trySendFrame},
        {false, &FwTasks::fetchRecvBdReady, &FwTasks::tryFetchRecvBd},
        {true, &FwTasks::fetchSendBdReady, &FwTasks::tryFetchSendBd},
    };
    eventRegAddr = tasks.st().spad.storage().alloc(4, 4);
}

bool
EventRegisterDispatcher::service(OpRecorder &rec, unsigned core_id,
                                 std::size_t ti)
{
    EventType &t = types[ti];
    bool any = false;
    for (unsigned pass = 0; pass < maxPasses; ++pass) {
        if (!(tasks.*(t.ready))())
            break;
        if (!(tasks.*(t.run))(rec))
            break;
        any = true;
    }
    if (!(tasks.*(t.ready))()) {
        // Drained: clear the event bit and release the type.
        rec.tag(t.isTx ? FuncTag::SendDispatch : FuncTag::RecvDispatch);
        rec.store(eventRegAddr);
        rec.alu(2);
        rec.action([this, ti] { types[ti].busy = false; });
        owned[core_id] = -1;
    }
    return any;
}

void
EventRegisterDispatcher::next(unsigned core_id, OpList &out)
{
    // A processor that owns a type keeps draining it (no other core
    // may touch that type meanwhile).
    if (owned[core_id] >= 0) {
        std::size_t ti = static_cast<std::size_t>(owned[core_id]);
        OpRecorder rec(out, types[ti].isTx ? FuncTag::SendDispatch
                                           : FuncTag::RecvDispatch);
        rec.load(eventRegAddr);
        rec.alu(cal::dispatchCheckAlu);
        service(rec, core_id, ti);
        ++found;
        return;
    }

    const std::size_t n = types.size();
    // Read the event register (one load: the hardware maintains the
    // bit vector) and scan for a set bit whose type is unowned.
    OpRecorder rec(out, FuncTag::Idle);
    rec.load(eventRegAddr);
    rec.alu(cal::dispatchCheckAlu);

    unsigned start = rotate++;
    bool worked = false;
    std::size_t claimed = n;
    for (std::size_t i = 0; i < n && !worked; ++i) {
        std::size_t ti = (start + i) % n;
        EventType &t = types[ti];
        rec.tag(t.isTx ? FuncTag::SendDispatch : FuncTag::RecvDispatch);
        rec.alu(1); // bit test
        if (t.busy || !(tasks.*(t.ready))())
            continue;
        // Claim the type.
        t.busy = true;
        owned[core_id] = static_cast<int>(ti);
        rec.store(eventRegAddr);
        worked = true;
        claimed = ti;
        service(rec, core_id, ti);
    }

    if (!worked) {
        for (auto &op : out.ops)
            op.tag = FuncTag::Idle;
        out.idlePoll = true;
        ++idle;
    } else {
        // Tag at service entry: the event-register read recorded before
        // the claim was known belongs to the claimed type's dispatch
        // bucket, not Idle.
        FuncTag dt = types[claimed].isTx ? FuncTag::SendDispatch
                                         : FuncTag::RecvDispatch;
        for (auto &op : out.ops) {
            if (op.tag != FuncTag::Idle)
                break;
            op.tag = dt;
        }
        ++found;
    }
}

} // namespace tengig
