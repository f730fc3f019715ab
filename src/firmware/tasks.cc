#include "tasks.hh"

#include <algorithm>

#include "fault/fault.hh"

namespace tengig {

namespace {

/** Safe distance between monotonic counters. */
inline std::uint64_t
dist(std::uint64_t newer, std::uint64_t older)
{
    return newer >= older ? newer - older : 0;
}

} // namespace

FwTasks::FwTasks(FwState &state_, DmaAssist &dma_read,
                 DmaAssist &dma_write, MacTx &mac_tx,
                 DeviceDriver &driver_, HostMemory &host_,
                 Addr tx_buf_sdram, Addr rx_buf_sdram, AssistIds ids_)
    : state(state_), dmaRead(dma_read), dmaWrite(dma_write),
      macTx(mac_tx), driver(driver_), host(host_),
      txBufSdram(tx_buf_sdram), rxBufSdram(rx_buf_sdram), ids(ids_)
{}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

void
FwTasks::aluH(OpRecorder &rec, unsigned n)
{
    rec.alu(n, n * cal::hazardPer16 / 16);
}

void
FwTasks::touch(OpRecorder &rec, Addr base, unsigned n)
{
    // Walk the frame's metadata block at (cache-)line stride: real
    // per-frame state is many small structures (frame descriptor, DMA
    // descriptors, offload context), so consecutive accesses rarely
    // share a line -- the low locality Figure 3 hinges on.
    constexpr unsigned bytes = FwState::infoBytes - FwState::eventBytes;
    unsigned build = (2 * n) / 5; // build phase writes, later reads
    for (unsigned i = 0; i < n; ++i) {
        Addr a = base + (16 * i + 4 * (i % 4)) % bytes;
        a &= ~static_cast<Addr>(3);
        if (i < build)
            rec.store(a);
        else
            rec.load(a);
    }
}

void
FwTasks::hwCounterWrite(unsigned ctr, std::uint64_t value,
                        unsigned requester)
{
    Addr a = state.counterAddr(ctr);
    state.spad.storage().storeWord(a, static_cast<std::uint32_t>(value));
    state.spad.access(requester, a, SpadOp::WriteTiming, 0, nullptr);
}

bool
FwTasks::lockOrSpin(OpRecorder &rec, FwLock l, FuncTag lock_tag)
{
    if (state.config.idealMode)
        return true;
    unsigned li = static_cast<unsigned>(l);
    FuncTag saved = rec.tag();
    rec.tag(lock_tag);
    rec.alu(cal::lockAcquireAlu);
    rec.rmw(state.lockAddr(l));
    if (state.lockHeld[li]) {
        ++state.lockSpins[li];
        rec.alu(cal::lockSpinAlu);
        rec.tag(saved);
        return false;
    }
    state.lockHeld[li] = true;
    ++state.lockAcquires[li];
    rec.tag(saved);
    return true;
}

void
FwTasks::unlock(OpRecorder &rec, FwLock l, FuncTag lock_tag)
{
    if (state.config.idealMode)
        return;
    FuncTag saved = rec.tag();
    rec.tag(lock_tag);
    rec.store(state.lockAddr(l));
    rec.alu(cal::lockReleaseAlu);
    rec.action([this, l] {
        state.lockHeld[static_cast<unsigned>(l)] = false;
    });
    rec.tag(saved);
}

void
FwTasks::undoLock(FwLock l)
{
    if (!state.config.idealMode)
        state.lockHeld[static_cast<unsigned>(l)] = false;
}

void
FwTasks::queueStatusUpdate(OpRecorder &rec, FuncTag tag, Addr status_at)
{
    if (state.config.idealMode)
        return;
    FuncTag saved = rec.tag();
    rec.tag(tag);
    if (state.config.rmwEnhanced) {
        rec.alu(cal::rmwQueueUpdAlu);
        for (unsigned i = 0; i < cal::rmwQueueUpdRmws; ++i)
            rec.rmw(status_at + 4 * i);
    } else {
        for (unsigned i = 0; i < cal::swQueueUpdLoads; ++i)
            rec.load(status_at + 4 * i);
        aluH(rec, cal::swQueueUpdAlu);
        for (unsigned i = 0; i < cal::swQueueUpdStores; ++i)
            rec.store(status_at + 4 * i);
    }
    rec.tag(saved);
}

void
FwTasks::eventPerFrame(OpRecorder &rec, FuncTag tag, std::uint64_t first,
                       std::uint64_t n, bool tx)
{
    if (state.config.idealMode)
        return;
    FuncTag saved = rec.tag();
    rec.tag(tag);
    Addr base = tx ? state.txEventBase : state.rxEventBase;
    unsigned slots = tx ? state.config.txSlots : state.config.rxSlots;
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr at = base + ((first + i) % slots) * FwState::infoBytes;
        for (unsigned k = 0; k < cal::eventPerFrameLoads; ++k)
            rec.load(at + 4 * (k % 8));
        aluH(rec, cal::eventPerFrameAlu);
        for (unsigned k = 0; k < cal::eventPerFrameStores; ++k)
            rec.store(at + 4 * ((k + 4) % 8));
        if (!state.config.rmwEnhanced) {
            for (unsigned k = 0; k < cal::swEventPerFrameLoads; ++k)
                rec.load(at + 4 * ((k + 2) % 8));
            aluH(rec, cal::swEventPerFrameAlu);
        }
    }
    rec.tag(saved);
}

void
FwTasks::setStatusFlag(OpRecorder &rec, Addr flag_base, std::uint64_t seq,
                       FuncTag tag)
{
    Addr word = state.flagWordAddr(flag_base, seq);
    unsigned bit = state.flagBit(seq) % 32;
    FuncTag saved = rec.tag();
    rec.tag(tag);
    if (state.config.rmwEnhanced) {
        // One atomic set instruction.
        rec.alu(cal::rmwSetAlu);
        rec.rmw(word);
    } else {
        // load / or / store sequence (the caller holds the flag lock),
        // followed by the consecutive-range readiness check the paper
        // describes: after every status update the software must
        // re-examine the flag words around the commit pointer to
        // decide whether a hardware pointer update is now possible.
        // This looping memory traffic is exactly what the update RMW
        // instruction eliminates.
        rec.load(word);
        rec.alu(cal::swFlagSetAlu);
        rec.store(word);
        bool tx = flag_base == state.txFlagBase;
        unsigned loads = tx ? cal::swReadyCheckTxLoads
                            : cal::swReadyCheckRxLoads;
        unsigned alu = tx ? cal::swReadyCheckTxAlu
                          : cal::swReadyCheckRxAlu;
        unsigned stores = tx ? cal::swReadyCheckTxStores
                             : cal::swReadyCheckRxStores;
        for (unsigned i = 0; i < loads; ++i)
            rec.load(word + 4 * i);
        aluH(rec, alu);
        for (unsigned i = 0; i < stores; ++i)
            rec.store(word + 4 + 4 * i);
    }
    state.spad.functionalAtomicSet(word, bit);
    rec.tag(saved);
}

unsigned
FwTasks::commitScan(OpRecorder &rec, Addr flag_base, std::uint64_t from,
                    unsigned max, FuncTag tag)
{
    FuncTag saved = rec.tag();
    rec.tag(tag);
    unsigned committed = 0;
    auto &storage = state.spad.storage();

    if (state.config.rmwEnhanced) {
        // One update RMW per aligned word; each clears the consecutive
        // run it finds (bounded by the word boundary).
        while (committed < max) {
            std::uint64_t seq = from + committed;
            Addr word = state.flagWordAddr(flag_base, seq);
            unsigned bit = state.flagBit(seq) % 32;
            rec.alu(cal::rmwUpdateAlu);
            rec.rmw(word);
            std::uint32_t n = state.spad.functionalAtomicUpdate(word, bit);
            committed += n;
            if (bit + n < 32)
                break; // run ended inside the word
        }
    } else {
        // Lock-protected scan: load each word, walk consecutive bits,
        // clear, store back (the caller holds the order lock).
        while (committed < max) {
            std::uint64_t seq = from + committed;
            Addr word = state.flagWordAddr(flag_base, seq);
            unsigned bit = state.flagBit(seq) % 32;
            rec.load(word);
            rec.alu(cal::swScanAluPerWord);
            std::uint32_t v = storage.loadWord(word);
            unsigned cleared = 0;
            while (bit + cleared < 32 && committed + cleared < max &&
                   (v & (1u << (bit + cleared)))) {
                v &= ~(1u << (bit + cleared));
                ++cleared;
            }
            if (cleared > 0) {
                storage.storeWord(word, v);
                rec.alu(cal::swScanAluPerFrame * cleared);
                rec.store(word);
            }
            committed += cleared;
            if (bit + cleared < 32 || cleared == 0)
                break; // run ended (or word exhausted without bits)
        }
    }
    rec.tag(saved);
    return committed;
}

bool
FwTasks::quiescent() const
{
    return state.txClaimedFrames == state.txBdArrivedFrames() &&
           state.txCmdsPushed == state.txCmdsCompleted &&
           state.txDmaProcessed == state.txCmdsCompleted &&
           state.txOrderedReady == state.txDmaProcessed &&
           state.txMacEnqueued == state.txOrderedReady &&
           state.macTxDone == state.txMacEnqueued &&
           state.txComplProcessed == state.macTxDone &&
           state.rxClaimedFrames == state.macRxStored &&
           state.rxCmdsPushed == state.rxCmdsCompleted &&
           state.rxDmaProcessed == state.rxCmdsCompleted &&
           state.rxOrderedReady == state.rxDmaProcessed &&
           state.rxCommitted == state.rxOrderedReady;
}

// ---------------------------------------------------------------------
// Transmit path
// ---------------------------------------------------------------------

bool
FwTasks::fetchSendBdReady() const
{
    if (dist(state.hostPostedBds, state.txBdFetchIssuedBds) == 0)
        return false;
    if (dmaRead.depth() + state.dmaReadReserved + 1 >= dmaRead.capacity())
        return false;
    // Scratchpad BD cache space: unparsed BDs must fit (a BD pair
    // covers tsoSegments frames).
    std::uint64_t parsed =
        state.txClaimedFrames / state.config.tsoSegments * 2;
    return dist(state.txBdFetchIssuedBds, parsed) +
           state.config.sendBdBatch <= state.config.bdCacheBds;
}

bool
FwTasks::tryFetchSendBd(OpRecorder &rec)
{
    if (!fetchSendBdReady())
        return false;
    if (!lockOrSpin(rec, FwLock::SendDispatch, FuncTag::SendLock))
        return true; // spin recorded

    ++state.invFetchSendBd;
    std::uint64_t issued = state.txBdFetchIssuedBds;
    std::uint64_t avail = dist(state.hostPostedBds, issued);
    unsigned ring_bds = driver.sendRingCapacityBds();
    unsigned cache = state.config.bdCacheBds;
    std::uint64_t batch = std::min<std::uint64_t>(
        {avail, state.config.sendBdBatch,
         ring_bds - (issued % ring_bds), cache - (issued % cache)});

    rec.tag(FuncTag::FetchSendBd);
    aluH(rec, cal::sendBdBatchAlu);
    for (unsigned i = 0; i < cal::sendBdBatchLoads; ++i)
        rec.load(state.counterAddr(FwState::CtrHostPostedBds) + 4 * i);
    for (unsigned i = 0; i < cal::sendBdBatchStores; ++i)
        rec.store(state.sendBdCache + 4 * i);

    Addr host_at = driver.sendBdRingBase() +
        (issued % ring_bds) * BufferDesc::bytes;
    Addr local_at = state.sendBdCache + (issued % cache) *
        BufferDesc::bytes;
    state.txBdFetchIssuedBds += batch;
    ++state.dmaReadReserved;
    rec.action([this, host_at, local_at, batch] {
        --state.dmaReadReserved;
        bool ok = dmaRead.push(DmaCommand{
            DmaCommand::Kind::HostToSpad, host_at, local_at,
            batch * BufferDesc::bytes, 0,
            [this, batch] {
                state.txBdArrivedBds += batch;
                hwCounterWrite(FwState::CtrTxBdArrived,
                               state.txBdArrivedBds, ids.dmaRead);
            }});
        panic_if(!ok, "[fw send-bd] dma read FIFO overflow despite "
                 "reservation @tick ", dmaRead.curTick());
    });
    unlock(rec, FwLock::SendDispatch, FuncTag::SendLock);
    return true;
}

bool
FwTasks::sendFrameReady() const
{
    if (dist(state.txBdArrivedFrames(), state.txClaimedFrames) == 0)
        return false;
    if (!state.txSlotAvailable(state.txClaimedFrames))
        return false;
    if (dmaRead.depth() + state.dmaReadReserved +
        2 * state.config.bundleFrames >= dmaRead.capacity())
        return false;
    // Command-ring space: completed-but-unprocessed entries still live.
    return dist(state.txCmdsPushed, state.txDmaProcessed) +
           2 * state.config.bundleFrames < state.config.txSlots;
}

bool
FwTasks::trySendFrame(OpRecorder &rec)
{
    if (!sendFrameReady())
        return false;
    if (!lockOrSpin(rec, FwLock::SendDispatch, FuncTag::SendLock))
        return true;

    ++state.invSendFrame;
    std::uint64_t avail = dist(state.txBdArrivedFrames(),
                               state.txClaimedFrames);
    std::uint64_t slots = state.config.txSlots -
        dist(state.txClaimedFrames, state.txFreedFrames);
    std::uint64_t n = std::min<std::uint64_t>(
        {avail, slots, state.config.bundleFrames});
    std::uint64_t first = state.txClaimedFrames;
    state.txClaimedFrames += n;
    state.dmaReadReserved += static_cast<unsigned>(2 * n);

    rec.tag(FuncTag::SendDispatch);
    rec.store(state.counterAddr(FwState::CtrTxClaimed));
    unlock(rec, FwLock::SendDispatch, FuncTag::SendLock);
    aluH(rec, cal::claimAlu + cal::eventBuildAlu);
    for (unsigned i = 1; i < cal::eventBuildStores; ++i)
        rec.store(state.counterAddr(FwState::CtrTxClaimed) + 4 * i);
    queueStatusUpdate(rec, FuncTag::SendDispatch,
                      state.counterAddr(FwState::CtrTxClaimed));
    eventPerFrame(rec, FuncTag::SendDispatch, first, n, true);

    unsigned cache = state.config.bdCacheBds;
    unsigned segs = state.config.tsoSegments;
    for (std::uint64_t seq = first; seq < first + n; ++seq) {
        // Parse the group's two BDs out of the scratchpad BD cache
        // (real bytes the DMA assist fetched from the host ring).
        // With deferred segmentation a descriptor pair covers
        // tsoSegments frames, so the parse cost is paid once per
        // group -- the firmware-side TSO saving.
        auto &storage = state.spad.storage();
        std::uint64_t group = seq / segs;
        unsigned seg = static_cast<unsigned>(seq % segs);
        FwState::TxFrameInfo info{};
        if (seg == 0) {
            rec.tag(FuncTag::FetchSendBd);
            for (unsigned b = 0; b < 2; ++b) {
                Addr bd_at = state.sendBdCache +
                    ((group * 2 + b) % cache) * BufferDesc::bytes;
                std::uint64_t addr_lo = storage.loadWord(bd_at);
                std::uint64_t addr_hi = storage.loadWord(bd_at + 4);
                std::uint32_t len = storage.loadWord(bd_at + 8);
                std::uint64_t haddr = addr_lo | (addr_hi << 32);
                if (b == 0) {
                    info.hostHdrAddr = haddr;
                    info.hdrLen = len;
                } else {
                    info.hostPayAddr = haddr;
                    info.payLen = len / segs;
                }
                for (unsigned i = 0; i < cal::sendBdParseLoads; ++i)
                    rec.load(bd_at + 4 * i);
                aluH(rec, cal::sendBdParseAlu);
            }
        } else {
            // Subsequent segments reuse the parsed group state: the
            // header template address and a sliced payload pointer.
            const auto &prev =
                state.txInfo[(seq - 1) % state.config.txSlots];
            info.hostHdrAddr = prev.hostHdrAddr;
            info.hdrLen = prev.hdrLen;
            info.hostPayAddr = prev.hostPayAddr + prev.payLen;
            info.payLen = prev.payLen;
            rec.tag(FuncTag::FetchSendBd);
            aluH(rec, cal::tsoSegmentAlu);
        }
        state.txInfo[seq % state.config.txSlots] = info;
        if (faults) {
            // Roll per-frame poisoning at claim time; the commit step
            // consults the mark at MAC-handoff time (a dropped payload
            // DMA can also set it later -- see onFault below).
            state.txPoison[seq % state.config.txSlots] =
                faults->rollTxPoison(txVfOf ? txVfOf(seq) : 0) ? 1 : 0;
        }

        // Build the frame: metadata writes, DMA programming.
        rec.tag(FuncTag::SendFrame);
        Addr info_at = state.txInfoBase +
            (seq % state.config.txSlots) * FwState::infoBytes;
        aluH(rec, cal::sendFrameAlu);
        for (unsigned i = 0; i < cal::sendFrameInfoStores; ++i)
            rec.store(info_at + 4 * i);
        touch(rec, info_at, cal::sendFrameTouch);
        rec.store(state.txCmdRingBase +
                  (seq % state.config.txSlots) * 4);

        Addr slot = txBufSdram +
            (seq % state.config.txSlots) * state.config.slotBytes;
        rec.action([this, info, slot, seq] {
            state.dmaReadReserved -= 2;
            // Payload lands right after the 42-byte header --
            // misaligned in SDRAM, exactly the paper's inefficiency.
            // If either transfer is abandoned under fault injection
            // the SDRAM slot holds stale bytes; poison the frame so
            // the commit step skips it instead of transmitting junk.
            auto poison = [this, seq] {
                state.txPoison[seq % state.config.txSlots] = 1;
            };
            unsigned vf = txVfOf ? txVfOf(seq) : 0;
            bool ok = dmaRead.push(
                DmaCommand{DmaCommand::Kind::HostToSdram,
                           info.hostHdrAddr, slot, info.hdrLen, 0,
                           nullptr, poison, vf});
            panic_if(!ok, "[fw send] dma read FIFO overflow despite "
                     "reservation @tick ", dmaRead.curTick());
            ok = dmaRead.push(
                DmaCommand{DmaCommand::Kind::HostToSdram,
                           info.hostPayAddr, slot + info.hdrLen,
                           info.payLen, info.payLen, [this, seq] {
                               state.txCmdsCompleted++;
                               hwCounterWrite(FwState::CtrTxCmdsCompleted,
                                              state.txCmdsCompleted,
                                              ids.dmaRead);
                           },
                           poison, vf});
            panic_if(!ok, "[fw send] dma read FIFO overflow despite "
                     "reservation @tick ", dmaRead.curTick());
            state.txCmdSeq[state.txCmdsPushed % state.config.txSlots] =
                seq;
            ++state.txCmdsPushed;
        });
    }
    return true;
}

bool
FwTasks::commitPossible(Addr flag_base, std::uint64_t ptr) const
{
    // A commit can only make progress if the frame *at* the commit
    // pointer is done (the consecutive requirement); peeking the flag
    // word is what the firmware's dispatch check does anyway.
    Addr word = state.flagWordAddr(flag_base, ptr);
    unsigned bit = state.flagBit(ptr) % 32;
    return (state.spad.storage().loadWord(word) >> bit) & 1;
}

bool
FwTasks::processTxDmaReady() const
{
    if (dist(state.txCmdsCompleted, state.txDmaProcessed) > 0)
        return true;
    if (state.txCommitBusy)
        return false;
    // Enqueue-only work: ordered frames waiting for MAC FIFO space.
    // Dispatch only once a small batch fits (the FIFO is deep enough
    // that batching cannot underrun the wire).
    std::uint64_t enq_pending = dist(state.txOrderedReady,
                                     state.txMacEnqueued);
    if (enq_pending > 0) {
        std::size_t used = macTx.depth() + state.macTxReserved;
        std::size_t cap = macTx.capacity();
        unsigned space = used < cap ? static_cast<unsigned>(cap - used)
                                    : 0;
        if (space >= std::min<std::uint64_t>(enq_pending,
                                             cal::enqueueBatch)) {
            if (!commitPeek)
                return true;
            // Don't dispatch enqueue-only work the MAC rate gate
            // would immediately stall on (the head frame's VF bucket
            // is dry); poisoned heads always pass, being skipped
            // uncharged.
            std::uint64_t seq = state.txMacEnqueued;
            if (faults && state.txPoison[seq % state.config.txSlots])
                return true;
            const auto &inf = state.txInfo[seq % state.config.txSlots];
            if (commitPeek(seq, inf.hdrLen + inf.payLen))
                return true;
        }
    }
    // Scan-only work: flagged frames whose order is not yet resolved.
    if (dist(state.txDmaProcessed, state.txOrderedReady) == 0)
        return false;
    // The RMW firmware's update instruction checks readiness and
    // commits in one step, so it only dispatches when the frame at the
    // commit pointer is actually done.  The software-only firmware
    // cannot tell without taking the order lock and scanning -- those
    // futile synchronized scans are part of its ordering overhead.
    return !state.config.rmwEnhanced ||
           commitPossible(state.txFlagBase, state.txOrderedReady);
}

bool
FwTasks::tryProcessTxDma(OpRecorder &rec)
{
    if (!processTxDmaReady())
        return false;
    bool sw = !state.config.rmwEnhanced && !state.config.idealMode;
    // In the software-only strategy the status flags are guarded by a
    // dedicated lock; bail out (spin) before claiming work if busy.
    std::uint64_t n = std::min<std::uint64_t>(
        dist(state.txCmdsCompleted, state.txDmaProcessed),
        state.config.maxCommitPerPass);
    if (sw && n > 0 &&
        state.lockHeld[static_cast<unsigned>(FwLock::TxFlag)]) {
        lockOrSpin(rec, FwLock::TxFlag, FuncTag::SendLock);
        return true; // spin recorded
    }
    if (!lockOrSpin(rec, FwLock::SendDispatch, FuncTag::SendLock))
        return true;

    ++state.invProcessTxDma;
    std::uint64_t first = state.txDmaProcessed;
    state.txDmaProcessed += n;
    bool commit = !state.txCommitBusy;
    if (commit)
        state.txCommitBusy = true;
    rec.tag(FuncTag::SendDispatch);
    rec.store(state.counterAddr(FwState::CtrTxDmaProcessed));
    unlock(rec, FwLock::SendDispatch, FuncTag::SendLock);
    aluH(rec, cal::claimAlu + cal::eventBuildAlu);
    for (unsigned i = 1; i < cal::eventBuildStores; ++i)
        rec.store(state.counterAddr(FwState::CtrTxDmaProcessed) + 4 * i);
    queueStatusUpdate(rec, FuncTag::SendDispatch,
                      state.counterAddr(FwState::CtrTxDmaProcessed));
    eventPerFrame(rec, FuncTag::SendDispatch, first, n, true);

    // Mark each completed DMA's frame as ready for the MAC.
    if (n > 0 && sw && !lockOrSpin(rec, FwLock::TxFlag,
                                   FuncTag::SendLock)) {
        // Should not happen (checked above), but handle by undoing.
        state.txDmaProcessed = first;
        if (commit)
            state.txCommitBusy = false;
        return true;
    }
    for (std::uint64_t i = first; i < first + n; ++i) {
        rec.tag(FuncTag::SendDispatch);
        Addr ring_at = state.txCmdRingBase +
            (i % state.config.txSlots) * 4;
        rec.load(ring_at);
        std::uint64_t seq = state.txCmdSeq[i % state.config.txSlots];
        setStatusFlag(rec, state.txFlagBase, seq, FuncTag::SendDispatch);
    }
    if (n > 0 && sw)
        unlock(rec, FwLock::TxFlag, FuncTag::SendLock);

    if (!commit)
        return true;

    // Commit stage 1: scan/clear consecutive status flags, advancing
    // the ordered pointer (the paper's hardware pointer update).
    if (dist(state.txDmaProcessed, state.txOrderedReady) > 0) {
        if (sw && !lockOrSpin(rec, FwLock::TxOrder, FuncTag::SendLock)) {
            state.txCommitBusy = false;
            return true;
        }
        unsigned scanned = commitScan(rec, state.txFlagBase,
                                      state.txOrderedReady,
                                      state.config.maxCommitPerPass,
                                      FuncTag::SendDispatch);
        state.txOrderedReady += scanned;
        rec.tag(FuncTag::SendDispatch);
        rec.store(state.counterAddr(FwState::CtrTxMacEnqueued));
        if (sw)
            unlock(rec, FwLock::TxOrder, FuncTag::SendLock);
    }

    // Commit stage 2: hand ordered frames to the MAC as space allows.
    unsigned mac_space = 0;
    {
        std::size_t used = macTx.depth() + state.macTxReserved;
        std::size_t cap = macTx.capacity();
        mac_space = used < cap ? static_cast<unsigned>(cap - used) : 0;
    }
    unsigned count = static_cast<unsigned>(std::min<std::uint64_t>(
        {dist(state.txOrderedReady, state.txMacEnqueued), mac_space,
         state.config.maxCommitPerPass}));
    ++state.invTxCommitPasses;
    std::uint64_t base = state.txMacEnqueued;
    unsigned enq = 0;
    for (unsigned i = 0; i < count; ++i) {
        std::uint64_t seq = base + i;
        // MAC-commit rate gate (vnic runs): charge the owning VF's
        // enforcement bucket before handing the frame to the MAC.
        // The pipeline is strictly in order, so a dry bucket stalls
        // the whole commit here -- that is the isolation contract;
        // cores re-poll and resume with the lazy refill.  Poisoned
        // frames never touch the wire and pass uncharged.
        if (commitAdmit &&
            !(faults && state.txPoison[seq % state.config.txSlots])) {
            const auto &inf = state.txInfo[seq % state.config.txSlots];
            if (!commitAdmit(seq, inf.hdrLen + inf.payLen))
                break;
        }
        rec.tag(FuncTag::SendDispatch);
        Addr info_at = state.txInfoBase +
            (seq % state.config.txSlots) * FwState::infoBytes;
        bool rmw_mode = state.config.rmwEnhanced;
        unsigned cl = rmw_mode ? cal::rmwCommitPerFrameLoads
                               : cal::commitPerFrameLoads;
        unsigned cs = rmw_mode ? cal::rmwCommitPerFrameStores
                               : cal::commitPerFrameStores;
        unsigned ca = rmw_mode ? cal::rmwCommitPerFrameAlu
                               : cal::commitPerFrameAlu;
        for (unsigned k = 0; k < cl; ++k)
            rec.load(info_at + 4 * k);
        for (unsigned k = 0; k < cs; ++k)
            rec.store(info_at + 16 + 4 * k);
        aluH(rec, ca);

        const auto &info = state.txInfo[seq % state.config.txSlots];
        Addr slot = txBufSdram +
            (seq % state.config.txSlots) * state.config.slotBytes;
        unsigned len = info.hdrLen + info.payLen;
        ++state.macTxReserved;
        rec.action([this, slot, len, seq] {
            --state.macTxReserved;
            // Poisoned frames are retired through a skip command: it
            // flows through both MAC stages (so every other frame's
            // completion ordering is untouched) but never touches the
            // SDRAM bus or the wire.
            bool skip = faults &&
                state.txPoison[seq % state.config.txSlots];
            if (skip) {
                faults->notePoisonSkip(txVfOf ? txVfOf(seq) : 0);
                if (onPoisonSkip)
                    onPoisonSkip(seq);
            }
            bool ok = macTx.push(MacTx::Command{
                slot, len,
                [this] {
                    ++state.macTxDone;
                    hwCounterWrite(FwState::CtrMacTxDone,
                                   state.macTxDone, ids.macTx);
                },
                skip});
            panic_if(!ok, "[fw commit] mac tx FIFO overflow despite "
                     "reservation @tick ", dmaRead.curTick());
        });
        ++enq;
    }
    state.invTxCommitted += enq;
    state.txMacEnqueued += enq;
    rec.tag(FuncTag::SendDispatch);
    rec.store(state.counterAddr(FwState::CtrTxMacEnqueued));
    if (sw)
        unlock(rec, FwLock::TxOrder, FuncTag::SendLock);
    rec.action([this] { state.txCommitBusy = false; });
    return true;
}

bool
FwTasks::processTxCompleteReady() const
{
    return dist(state.macTxDone, state.txComplProcessed) > 0 &&
           !dmaWrite.full();
}

bool
FwTasks::tryProcessTxComplete(OpRecorder &rec)
{
    if (!processTxCompleteReady())
        return false;
    if (!lockOrSpin(rec, FwLock::SendDispatch, FuncTag::SendLock))
        return true;

    ++state.invProcessTxComplete;
    std::uint64_t n = std::min<std::uint64_t>(
        dist(state.macTxDone, state.txComplProcessed),
        state.config.maxCommitPerPass);
    state.txComplProcessed += n;
    state.txFreedFrames = state.txComplProcessed;
    std::uint64_t upto = state.txComplProcessed;
    ++state.dmaWriteReserved;
    rec.tag(FuncTag::SendDispatch);
    rec.store(state.counterAddr(FwState::CtrTxComplProcessed));
    unlock(rec, FwLock::SendDispatch, FuncTag::SendLock);
    aluH(rec, cal::claimAlu);
    queueStatusUpdate(rec, FuncTag::SendDispatch,
                      state.counterAddr(FwState::CtrTxComplProcessed));

    rec.tag(FuncTag::SendFrame);
    for (std::uint64_t i = 0; i < n; ++i) {
        aluH(rec, cal::txCompletePerFrameAlu);
        // Reads the frame state the Send Frame stage wrote, usually
        // from a different core (migratory sharing).
        Addr info_at = state.txInfoBase +
            ((upto - n + i) % state.config.txSlots) * FwState::infoBytes;
        for (unsigned k = 0; k < cal::txCompletePerFrameLoads; ++k)
            rec.load(info_at + 16 * k);
    }
    // One batched consumed-index writeback for the whole bundle.
    aluH(rec, cal::txCompleteWritebackAlu);
    for (unsigned k = 0; k < cal::txCompleteWritebackStores; ++k)
        rec.store(state.counterAddr(FwState::CtrTxComplProcessed));
    state.spad.storage().storeWord(
        state.counterAddr(FwState::CtrTxComplProcessed),
        static_cast<std::uint32_t>(upto));
    rec.action([this, upto] {
        --state.dmaWriteReserved;
        bool ok = dmaWrite.push(DmaCommand{
            DmaCommand::Kind::SpadToHost,
            driver.txConsumedMailbox(),
            state.counterAddr(FwState::CtrTxComplProcessed), 4, 0,
            [this, upto] { driver.txConsumedUpTo(upto); }});
        panic_if(!ok, "[fw tx-complete] dma write FIFO overflow despite "
                 "reservation @tick ", dmaWrite.curTick());
    });
    return true;
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

bool
FwTasks::fetchRecvBdReady() const
{
    std::uint64_t buffered = dist(state.rxBdArrivedBds,
                                  state.rxBdConsumedBds) +
        dist(state.rxBdFetchIssuedBds, state.rxBdArrivedBds);
    if (buffered >= state.config.rxBdLowWater)
        return false;
    if (dist(state.hostRecvBdsPosted, state.rxBdFetchIssuedBds) == 0)
        return false;
    if (dmaRead.depth() + state.dmaReadReserved + 1 >= dmaRead.capacity())
        return false;
    std::uint64_t unconsumed = dist(state.rxBdFetchIssuedBds,
                                    state.rxBdConsumedBds);
    return unconsumed + state.config.recvBdBatch <=
           state.config.bdCacheBds;
}

bool
FwTasks::tryFetchRecvBd(OpRecorder &rec)
{
    if (!fetchRecvBdReady())
        return false;
    if (!lockOrSpin(rec, FwLock::RecvDispatch, FuncTag::RecvLock))
        return true;

    ++state.invFetchRecvBd;
    std::uint64_t issued = state.rxBdFetchIssuedBds;
    std::uint64_t avail = dist(state.hostRecvBdsPosted, issued);
    unsigned ring_bds = driver.recvRingCapacityBds();
    unsigned cache = state.config.bdCacheBds;
    std::uint64_t batch = std::min<std::uint64_t>(
        {avail, state.config.recvBdBatch,
         ring_bds - (issued % ring_bds), cache - (issued % cache)});

    rec.tag(FuncTag::FetchRecvBd);
    aluH(rec, cal::recvBdBatchAlu);
    for (unsigned i = 0; i < cal::recvBdBatchLoads; ++i)
        rec.load(state.counterAddr(FwState::CtrHostRecvBds) + 4 * i);
    for (unsigned i = 0; i < cal::recvBdBatchStores; ++i)
        rec.store(state.recvBdCache + 4 * i);

    Addr host_at = driver.recvBdRingBase() +
        (issued % ring_bds) * BufferDesc::bytes;
    Addr local_at = state.recvBdCache + (issued % cache) *
        BufferDesc::bytes;
    state.rxBdFetchIssuedBds += batch;
    ++state.dmaReadReserved;
    rec.action([this, host_at, local_at, batch] {
        --state.dmaReadReserved;
        bool ok = dmaRead.push(DmaCommand{
            DmaCommand::Kind::HostToSpad, host_at, local_at,
            batch * BufferDesc::bytes, 0,
            [this, batch] {
                state.rxBdArrivedBds += batch;
                hwCounterWrite(FwState::CtrRxBdArrived,
                               state.rxBdArrivedBds, ids.dmaRead);
            }});
        panic_if(!ok, "[fw recv-bd] dma read FIFO overflow despite "
                 "reservation @tick ", dmaRead.curTick());
    });
    unlock(rec, FwLock::RecvDispatch, FuncTag::RecvLock);
    return true;
}

bool
FwTasks::recvFrameReady() const
{
    if (dist(state.macRxStored, state.rxClaimedFrames) == 0)
        return false;
    if (state.rxBdAvail() == 0)
        return false;
    if (dmaWrite.depth() + state.dmaWriteReserved +
        state.config.bundleFrames >= dmaWrite.capacity())
        return false;
    return dist(state.rxCmdsPushed, state.rxDmaProcessed) +
           state.config.bundleFrames < state.config.rxSlots;
}

bool
FwTasks::tryRecvFrame(OpRecorder &rec)
{
    if (!recvFrameReady())
        return false;
    // The receive-BD pop lock: the paper's troublesome receive-path
    // lock.  Taken before the claim so a spinning core backs off
    // without holding anything.
    if (!lockOrSpin(rec, FwLock::RxBdPop, FuncTag::RecvLock))
        return true;
    if (!lockOrSpin(rec, FwLock::RecvDispatch, FuncTag::RecvLock)) {
        undoLock(FwLock::RxBdPop);
        rec.store(state.lockAddr(FwLock::RxBdPop));
        return true;
    }

    ++state.invRecvFrame;
    std::uint64_t n = std::min<std::uint64_t>(
        {dist(state.macRxStored, state.rxClaimedFrames),
         static_cast<std::uint64_t>(state.rxBdAvail()),
         state.config.bundleFrames});
    std::uint64_t first = state.rxClaimedFrames;
    std::uint64_t first_bd = state.rxBdConsumedBds;
    state.rxClaimedFrames += n;
    state.rxBdConsumedBds += n;
    state.dmaWriteReserved += static_cast<unsigned>(n);
    rec.tag(FuncTag::RecvDispatch);
    rec.store(state.counterAddr(FwState::CtrRxClaimed));
    unlock(rec, FwLock::RecvDispatch, FuncTag::RecvLock);
    aluH(rec, cal::claimAlu + cal::eventBuildAlu);
    for (unsigned i = 1; i < cal::eventBuildStores; ++i)
        rec.store(state.counterAddr(FwState::CtrRxClaimed) + 4 * i);
    queueStatusUpdate(rec, FuncTag::RecvDispatch,
                      state.counterAddr(FwState::CtrRxClaimed));
    eventPerFrame(rec, FuncTag::RecvDispatch, first, n, false);

    // Receive-side dispatch extras: hardware descriptor ring walk,
    // return-ring management, notification coalescing.
    rec.tag(FuncTag::RecvDispatch);
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr at = state.rxInfoBase +
            ((first + i) % state.config.rxSlots) * FwState::infoBytes;
        for (unsigned k = 0; k < cal::recvDispatchExtraLoads; ++k)
            rec.load(at + 16 * k + 256);
        aluH(rec, cal::recvDispatchExtraAlu);
        for (unsigned k = 0; k < cal::recvDispatchExtraStores; ++k)
            rec.store(at + 16 * k + 260);
    }

    auto &storage = state.spad.storage();
    unsigned cache = state.config.bdCacheBds;
    // Pop the frames' receive BDs while holding the pop lock.
    std::vector<std::uint64_t> bufs(n);
    rec.tag(FuncTag::FetchRecvBd);
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr bd_at = state.recvBdCache +
            ((first_bd + i) % cache) * BufferDesc::bytes;
        std::uint64_t lo = storage.loadWord(bd_at);
        std::uint64_t hi = storage.loadWord(bd_at + 4);
        bufs[i] = lo | (hi << 32);
        for (unsigned k = 0; k < 1 + cal::recvBdParseLoads; ++k)
            rec.load(bd_at + 4 * k);
        aluH(rec, cal::recvBdParseAlu);
        // Free-list bookkeeping while the pop lock is held.
        rec.tag(FuncTag::RecvFrame);
        for (unsigned k = 0; k < cal::recvBdPopLoads; ++k)
            rec.load(bd_at + 4 * k);
        aluH(rec, cal::recvBdPopAlu);
        for (unsigned k = 0; k < cal::recvBdPopStores; ++k)
            rec.store(bd_at + 12);
        rec.tag(FuncTag::FetchRecvBd);
    }
    if (state.config.rmwEnhanced) {
        // Contention retries on the remaining receive-path lock (see
        // calibration.hh).
        rec.tag(FuncTag::RecvLock);
        for (std::uint64_t i = 0; i < n; ++i) {
            aluH(rec, cal::rmwRxPopRetryAlu);
            for (unsigned k = 0; k < cal::rmwRxPopRetryRmws; ++k)
                rec.rmw(state.lockAddr(FwLock::RxBdPop));
        }
    }
    rec.store(state.counterAddr(FwState::CtrRxBdConsumed));
    unlock(rec, FwLock::RxBdPop, FuncTag::RecvLock);

    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t seq = first + i;
        unsigned slot_idx = seq % state.config.rxSlots;
        auto &info = state.rxInfo[slot_idx];
        info.hostBufAddr = bufs[i];

        rec.tag(FuncTag::RecvFrame);
        // Read the MAC's hardware descriptor (sdram address + length).
        Addr hw_at = state.rxHwDescBase + slot_idx * 8;
        rec.load(hw_at);
        rec.load(hw_at + 4);
        aluH(rec, cal::recvFrameAlu);
        Addr info_at = state.rxInfoBase +
            static_cast<Addr>(slot_idx) * FwState::infoBytes;
        touch(rec, info_at, cal::recvFrameTouch);

        // Completion descriptor (real bytes: the write assist DMAs
        // them to the host return ring later).
        Addr compl_at = state.rxComplBase + slot_idx * 16;
        storage.storeWord(compl_at,
                          static_cast<std::uint32_t>(info.hostBufAddr));
        storage.storeWord(compl_at + 4,
                          static_cast<std::uint32_t>(
                              info.hostBufAddr >> 32));
        storage.storeWord(compl_at + 8, info.len);
        storage.storeWord(compl_at + 12,
                          static_cast<std::uint32_t>(seq));
        for (unsigned k = 0; k < cal::recvFrameComplStores; ++k)
            rec.store(compl_at + 4 * k);
        rec.store(state.rxCmdRingBase + slot_idx * 4);

        rec.action([this, seq, slot_idx] {
            const auto &fi = state.rxInfo[slot_idx];
            state.rxCmdSeq[state.rxCmdsPushed % state.config.rxSlots] =
                seq;
            ++state.rxCmdsPushed;
            bool ok = dmaWrite.push(DmaCommand{
                DmaCommand::Kind::SdramToHost, fi.hostBufAddr,
                fi.sdramAddr, fi.len,
                fi.len > txHeaderBytes ? fi.len - txHeaderBytes : 0,
                [this] {
                    --state.dmaWriteReserved;
                    ++state.rxCmdsCompleted;
                    hwCounterWrite(FwState::CtrRxCmdsCompleted,
                                   state.rxCmdsCompleted, ids.dmaWrite);
                },
                [this, slot_idx] {
                    // Content DMA abandoned: the host buffer holds
                    // stale bytes.  Zero the completion descriptor's
                    // length word so the driver recycles the buffer
                    // instead of delivering junk; ordering is kept
                    // because the completion still posts.
                    state.spad.storage().storeWord(
                        state.rxComplBase + slot_idx * 16 + 8, 0);
                },
                rxVfOf ? rxVfOf(seq) : 0});
            panic_if(!ok, "[fw recv] dma write FIFO overflow despite "
                     "reservation @tick ", dmaWrite.curTick());
        });
    }
    return true;
}

bool
FwTasks::processRxDmaReady() const
{
    if (dist(state.rxCmdsCompleted, state.rxDmaProcessed) > 0)
        return true;
    if (state.rxCommitBusy)
        return false;
    std::uint64_t del_pending = dist(state.rxOrderedReady,
                                     state.rxCommitted);
    if (del_pending > 0) {
        std::size_t used = dmaWrite.depth() + state.dmaWriteReserved;
        std::size_t cap = dmaWrite.capacity();
        unsigned space = used < cap ? static_cast<unsigned>(cap - used)
                                    : 0;
        if (space >= std::min<std::uint64_t>(del_pending,
                                             cal::enqueueBatch))
            return true;
    }
    if (dist(state.rxDmaProcessed, state.rxOrderedReady) == 0)
        return false;
    // See processTxDmaReady: only the RMW firmware can check
    // commit-readiness without the lock-and-scan sequence.
    return !state.config.rmwEnhanced ||
           commitPossible(state.rxFlagBase, state.rxOrderedReady);
}

bool
FwTasks::tryProcessRxDma(OpRecorder &rec)
{
    if (!processRxDmaReady())
        return false;
    bool sw = !state.config.rmwEnhanced && !state.config.idealMode;
    std::uint64_t n = std::min<std::uint64_t>(
        dist(state.rxCmdsCompleted, state.rxDmaProcessed),
        state.config.maxCommitPerPass);
    if (sw && n > 0 &&
        state.lockHeld[static_cast<unsigned>(FwLock::RxFlag)]) {
        lockOrSpin(rec, FwLock::RxFlag, FuncTag::RecvLock);
        return true;
    }
    if (!lockOrSpin(rec, FwLock::RecvDispatch, FuncTag::RecvLock))
        return true;

    ++state.invProcessRxDma;
    std::uint64_t first = state.rxDmaProcessed;
    state.rxDmaProcessed += n;
    bool commit = !state.rxCommitBusy;
    if (commit)
        state.rxCommitBusy = true;
    rec.tag(FuncTag::RecvDispatch);
    rec.store(state.counterAddr(FwState::CtrRxDmaProcessed));
    unlock(rec, FwLock::RecvDispatch, FuncTag::RecvLock);
    aluH(rec, cal::claimAlu + cal::eventBuildAlu);
    for (unsigned i = 1; i < cal::eventBuildStores; ++i)
        rec.store(state.counterAddr(FwState::CtrRxDmaProcessed) + 4 * i);
    queueStatusUpdate(rec, FuncTag::RecvDispatch,
                      state.counterAddr(FwState::CtrRxDmaProcessed));
    eventPerFrame(rec, FuncTag::RecvDispatch, first, n, false);

    if (n > 0 && sw && !lockOrSpin(rec, FwLock::RxFlag,
                                   FuncTag::RecvLock)) {
        state.rxDmaProcessed = first;
        if (commit)
            state.rxCommitBusy = false;
        return true;
    }
    for (std::uint64_t i = first; i < first + n; ++i) {
        rec.tag(FuncTag::RecvDispatch);
        rec.load(state.rxCmdRingBase + (i % state.config.rxSlots) * 4);
        std::uint64_t seq = state.rxCmdSeq[i % state.config.rxSlots];
        setStatusFlag(rec, state.rxFlagBase, seq, FuncTag::RecvDispatch);
    }
    if (n > 0 && sw)
        unlock(rec, FwLock::RxFlag, FuncTag::RecvLock);

    if (!commit)
        return true;

    if (dist(state.rxDmaProcessed, state.rxOrderedReady) > 0) {
        if (sw && !lockOrSpin(rec, FwLock::RxOrder, FuncTag::RecvLock)) {
            state.rxCommitBusy = false;
            return true;
        }
        unsigned scanned = commitScan(rec, state.rxFlagBase,
                                      state.rxOrderedReady,
                                      state.config.maxCommitPerPass,
                                      FuncTag::RecvDispatch);
        state.rxOrderedReady += scanned;
        rec.tag(FuncTag::RecvDispatch);
        rec.store(state.counterAddr(FwState::CtrRxCommitted));
        if (sw)
            unlock(rec, FwLock::RxOrder, FuncTag::RecvLock);
    }

    unsigned space = 0;
    {
        std::size_t used = dmaWrite.depth() + state.dmaWriteReserved;
        std::size_t cap = dmaWrite.capacity();
        space = used < cap ? static_cast<unsigned>(cap - used) : 0;
    }
    unsigned count = static_cast<unsigned>(std::min<std::uint64_t>(
        {dist(state.rxOrderedReady, state.rxCommitted), space,
         state.config.maxCommitPerPass}));
    ++state.invRxCommitPasses;
    state.invRxCommitted += count;
    std::uint64_t base = state.rxCommitted;
    for (unsigned i = 0; i < count; ++i) {
        std::uint64_t seq = base + i;
        unsigned slot_idx = seq % state.config.rxSlots;
        rec.tag(FuncTag::RecvDispatch);
        aluH(rec, state.config.rmwEnhanced ? cal::rmwCommitPerFrameAlu
                                           : cal::commitPerFrameAlu);
        Addr compl_at = state.rxComplBase + slot_idx * 16;
        rec.load(compl_at);
        rec.store(state.counterAddr(FwState::CtrRxCommitted));

        Addr host_at = driver.recvReturnRingBase() +
            (seq % driver.recvRingCapacityBds()) * BufferDesc::bytes;
        ++state.dmaWriteReserved;
        rec.action([this, compl_at, host_at] {
            --state.dmaWriteReserved;
            bool ok = dmaWrite.push(DmaCommand{
                DmaCommand::Kind::SpadToHost, host_at, compl_at, 16, 0,
                [this, host_at] {
                    // "Interrupt": the driver reads the completion
                    // descriptor from its return ring.
                    std::uint32_t w[4];
                    host.read(host_at, w, 16);
                    Addr buf = static_cast<Addr>(w[0]) |
                        (static_cast<Addr>(w[1]) << 32);
                    driver.rxCompletion(buf, w[2]);
                }});
            panic_if(!ok, "[fw rx-commit] dma write FIFO overflow "
                     "despite reservation @tick ", dmaWrite.curTick());
        });
    }
    state.rxCommitted += count;
    state.rxSlotsFreed = state.rxCommitted;
    if (sw)
        unlock(rec, FwLock::RxOrder, FuncTag::RecvLock);
    rec.action([this] { state.rxCommitBusy = false; });
    return true;
}

// ---------------------------------------------------------------------
// Hardware / host glue
// ---------------------------------------------------------------------

void
FwTasks::sendDoorbell(std::uint64_t total_bds)
{
    state.hostPostedBds = total_bds;
    state.spad.storage().storeWord(
        state.counterAddr(FwState::CtrHostPostedBds),
        static_cast<std::uint32_t>(total_bds));
}

void
FwTasks::recvDoorbell(std::uint64_t total_bds)
{
    state.hostRecvBdsPosted = total_bds;
    state.spad.storage().storeWord(
        state.counterAddr(FwState::CtrHostRecvBds),
        static_cast<std::uint32_t>(total_bds));
}

std::optional<Addr>
FwTasks::allocRxSlot(unsigned len)
{
    if (len > state.config.slotBytes)
        return std::nullopt;
    if (state.macRxAllocated - state.rxSlotsFreed >=
        state.config.rxSlots) {
        return std::nullopt; // receive ring exhausted: hardware drop
    }
    Addr slot = rxBufSdram +
        (state.macRxAllocated % state.config.rxSlots) *
        state.config.slotBytes;
    ++state.macRxAllocated;
    return slot;
}

void
FwTasks::rxFrameStored(const MacRx::StoredFrame &sf)
{
    std::uint64_t seq = state.macRxStored;
    unsigned slot_idx = seq % state.config.rxSlots;
    auto &info = state.rxInfo[slot_idx];
    info.sdramAddr = sf.sdramAddr;
    info.len = sf.lenBytes;

    // The MAC writes its hardware descriptor into the scratchpad ring
    // and bumps its progress pointer.
    Addr hw_at = state.rxHwDescBase + slot_idx * 8;
    auto &storage = state.spad.storage();
    storage.storeWord(hw_at, static_cast<std::uint32_t>(sf.sdramAddr));
    storage.storeWord(hw_at + 4, sf.lenBytes);
    state.spad.access(ids.macRx, hw_at, SpadOp::WriteTiming, 0, nullptr);
    state.spad.access(ids.macRx, hw_at + 4, SpadOp::WriteTiming, 0,
                      nullptr);
    ++state.macRxStored;
    hwCounterWrite(FwState::CtrMacRxStored, state.macRxStored,
                   ids.macRx);
}

} // namespace tengig
