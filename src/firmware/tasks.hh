/**
 * @file
 * Firmware task implementations.
 *
 * Each tryX() method checks its work condition, atomically claims a
 * bundle of work units (the paper's frame-level event structures),
 * performs the state transition functionally, and records the micro-op
 * stream the firmware would execute, including lock acquisition/spin
 * costs and the ordering strategy's scan/RMW costs.  Hardware assist
 * programming rides along as Action entries that fire when the owning
 * core's replay reaches them.
 *
 * Both dispatcher organizations (frame-level distributed event queue,
 * task-level event register) drive these same task bodies.
 */

#ifndef TENGIG_FIRMWARE_TASKS_HH
#define TENGIG_FIRMWARE_TASKS_HH

#include <optional>

#include "assist/dma_assist.hh"
#include "assist/mac.hh"
#include "firmware/calibration.hh"
#include "firmware/fw_state.hh"
#include "host/driver.hh"
#include "proc/micro_op.hh"

namespace tengig {

/** Crossbar requester identities of the four hardware assists. */
struct AssistIds
{
    unsigned dmaRead;
    unsigned dmaWrite;
    unsigned macTx;
    unsigned macRx;
};

class FwTasks
{
  public:
    FwTasks(FwState &state, DmaAssist &dma_read, DmaAssist &dma_write,
            MacTx &mac_tx, DeviceDriver &driver, HostMemory &host,
            Addr tx_buf_sdram, Addr rx_buf_sdram, AssistIds ids);

    /// @name Task entry points
    /// Each returns true if it recorded work (a claim or a lock spin);
    /// false means the work condition did not hold and nothing was
    /// recorded.
    /// @{
    bool tryFetchSendBd(OpRecorder &rec);
    bool trySendFrame(OpRecorder &rec);
    bool tryProcessTxDma(OpRecorder &rec);
    bool tryProcessTxComplete(OpRecorder &rec);
    bool tryFetchRecvBd(OpRecorder &rec);
    bool tryRecvFrame(OpRecorder &rec);
    bool tryProcessRxDma(OpRecorder &rec);
    /// @}

    /// @name Work-condition predicates (dispatch checks poll these)
    /// @{
    bool fetchSendBdReady() const;
    bool sendFrameReady() const;
    bool processTxDmaReady() const;
    bool processTxCompleteReady() const;
    bool fetchRecvBdReady() const;
    bool recvFrameReady() const;
    bool processRxDmaReady() const;
    /// @}

    /// @name Hardware / host glue
    /// @{
    void sendDoorbell(std::uint64_t total_bds);
    void recvDoorbell(std::uint64_t total_bds);
    std::optional<Addr> allocRxSlot(unsigned len);
    void rxFrameStored(const MacRx::StoredFrame &sf);
    /// @}

    FwState &st() { return state; }

    /** True when the whole TX+RX pipeline is drained (for tests). */
    bool quiescent() const;

    /**
     * Wire up fault injection (fault-enabled runs only).  Claimed tx
     * frames roll per-frame poison; poisoned frames are skipped at
     * the in-order MAC handoff (the skip still flows through both MAC
     * stages, so every other frame's ordering is untouched) and
     * @p on_poison_skip reports the skipped firmware sequence number
     * so the wire-side validator can expect the hole.
     */
    void
    attachFaults(FaultInjector *f,
                 std::function<void(std::uint64_t)> on_poison_skip)
    {
        faults = f;
        onPoisonSkip = std::move(on_poison_skip);
    }

    /**
     * Wire up the vnic arbitration layer (multi-function runs only,
     * DESIGN.md §13).  tx_vf_of / rx_vf_of translate a firmware
     * sequence number into the owning virtual function, for
     * per-tenant fault attribution and DMA tagging.  commit_peek asks
     * -- without charging -- whether the head frame could pass the
     * MAC-commit rate gate; commit_admit charges the owning VF's
     * enforcement bucket, returning false to stall the in-order
     * commit until the bucket refills (cores re-poll, so progress
     * resumes with the lazy refill).
     */
    void
    attachVnic(std::function<unsigned(std::uint64_t)> tx_vf_of,
               std::function<unsigned(std::uint64_t)> rx_vf_of,
               std::function<bool(std::uint64_t, unsigned)> commit_peek,
               std::function<bool(std::uint64_t, unsigned)> commit_admit)
    {
        txVfOf = std::move(tx_vf_of);
        rxVfOf = std::move(rx_vf_of);
        commitPeek = std::move(commit_peek);
        commitAdmit = std::move(commit_admit);
    }

  private:
    /// @name Lock helpers
    /// @{
    bool lockOrSpin(OpRecorder &rec, FwLock l, FuncTag lock_tag);
    void unlock(OpRecorder &rec, FwLock l, FuncTag lock_tag);
    void undoLock(FwLock l);
    /// @}

    /** Record @p n metadata touches alternating load/store at @p base. */
    void touch(OpRecorder &rec, Addr base, unsigned n);

    /** alu() with the calibrated hazard density. */
    void aluH(OpRecorder &rec, unsigned n);

    /** Record a hardware write to a shadow counter (assist-timed). */
    void hwCounterWrite(unsigned ctr, std::uint64_t value,
                        unsigned requester);

    /** True if the frame at the commit pointer is flagged done. */
    bool commitPossible(Addr flag_base, std::uint64_t ptr) const;

    /**
     * Event-queue status maintenance recorded on every successful
     * claim: lock+scan loops in the software-only firmware, a
     * set/update pair in the RMW-enhanced firmware.
     */
    void queueStatusUpdate(OpRecorder &rec, FuncTag tag, Addr status_at);

    /** Per-work-unit event-structure maintenance for a bundle of n. */
    void eventPerFrame(OpRecorder &rec, FuncTag tag, std::uint64_t first,
                       std::uint64_t n, bool tx);

    /** Set a frame's status bit under the active ordering strategy. */
    void setStatusFlag(OpRecorder &rec, Addr flag_base,
                       std::uint64_t seq, FuncTag tag);

    /**
     * Scan-and-clear consecutive status bits starting at @p from,
     * limited to @p max frames, under the active ordering strategy.
     * @return Number of consecutive done frames committed.
     */
    unsigned commitScan(OpRecorder &rec, Addr flag_base,
                        std::uint64_t from, unsigned max, FuncTag tag);

    FwState &state;
    DmaAssist &dmaRead;
    DmaAssist &dmaWrite;
    MacTx &macTx;
    DeviceDriver &driver;
    HostMemory &host;
    Addr txBufSdram;
    Addr rxBufSdram;
    AssistIds ids;
    FaultInjector *faults = nullptr; //!< null on fault-free runs
    std::function<void(std::uint64_t)> onPoisonSkip;
    /// @name vnic hooks (all null on single-function runs)
    /// @{
    std::function<unsigned(std::uint64_t)> txVfOf;
    std::function<unsigned(std::uint64_t)> rxVfOf;
    std::function<bool(std::uint64_t, unsigned)> commitPeek;
    std::function<bool(std::uint64_t, unsigned)> commitAdmit;
    /// @}
};

} // namespace tengig

#endif // TENGIG_FIRMWARE_TASKS_HH
