/**
 * @file
 * DMA hardware assists (Fig. 6: the PCI-interface data movers).
 *
 * The read assist moves data from host memory into the NIC (buffer
 * descriptors into the scratchpad, frame contents into the SDRAM
 * transmit buffer); the write assist moves data out (received frames
 * from SDRAM into host buffers, completion descriptors from the
 * scratchpad to host rings).  Each assist processes a command FIFO
 * strictly in order -- completion order equals programming order, which
 * the firmware's event processing relies on.
 *
 * Host-interconnect bandwidth/latency is intentionally untimed (the
 * paper's §5); the NIC-side costs are fully modeled: SDRAM bursts go
 * through the shared 128-bit internal bus, and scratchpad transfers
 * move one 32-bit word per CPU cycle through the crossbar, where they
 * contend with the processor cores.
 */

#ifndef TENGIG_ASSIST_DMA_ASSIST_HH
#define TENGIG_ASSIST_DMA_ASSIST_HH

#include <deque>
#include <functional>

#include "mem/host_memory.hh"
#include "mem/scratchpad.hh"
#include "mem/sdram.hh"
#include "sim/clock.hh"

namespace tengig {

class FaultInjector;

namespace obs { class StatGroup; }

/** One DMA command. */
struct DmaCommand
{
    enum class Kind
    {
        HostToSdram, //!< frame contents for transmit
        HostToSpad,  //!< buffer-descriptor fetch
        SdramToHost, //!< received frame contents
        SpadToHost,  //!< completion descriptors / index writebacks
    };

    Kind kind;
    Addr hostAddr = 0;
    Addr localAddr = 0;
    std::size_t len = 0;
    /** Frame-payload bytes within len (the rest is header/descriptor
     *  traffic); splits the assist's byte counters so the zero-copy
     *  accounting reconciles. */
    std::size_t payloadLen = 0;
    std::function<void()> done = {}; //!< fires when the transfer completes
    /** Fires (before done) when the transfer was abandoned after a
     *  failed retry under fault injection: the destination was NOT
     *  written and the owner must take its degradation action
     *  (poison the tx frame / zero the rx completion length). */
    std::function<void()> onFault = {};
    /** Owning virtual function (src/vnic): fault rolls and their
     *  accounting charge this tenant.  Control-metadata transfers
     *  (BD fetches, writebacks) stay on VF 0, the legacy stream. */
    unsigned vf = 0;
};

/**
 * A DMA assist engine with an in-order command FIFO.
 */
class DmaAssist : public Clocked
{
  public:
    /**
     * @param spad_requester Crossbar identity for descriptor traffic.
     * @param sdram_requester Internal-bus identity for frame traffic.
     * @param fifo_depth Maximum outstanding commands.
     */
    DmaAssist(EventQueue &eq, const ClockDomain &cpu_domain,
              Scratchpad &spad, GddrSdram &sdram, HostMemory &host,
              unsigned spad_requester, unsigned sdram_requester,
              unsigned fifo_depth = 64);

    /**
     * Enqueue a command.
     * @retval false if the FIFO is full (firmware must retry).
     */
    bool push(DmaCommand cmd);

    bool full() const { return queue.size() >= fifoDepth; }
    std::size_t depth() const { return queue.size(); }
    unsigned capacity() const { return fifoDepth; }

    std::uint64_t commandsCompleted() const { return completed.value(); }
    std::uint64_t bytesMoved() const { return bytes.value(); }
    std::uint64_t headerBytesMoved() const { return headerBytes.value(); }
    std::uint64_t payloadBytesMoved() const
    {
        return payloadBytes.value();
    }

    /** Pushes rejected because the FIFO was full (the caller must
     *  retry, per push()'s contract -- counted so silent livelock on
     *  a never-retried reject is visible in the stat tree). */
    std::uint64_t fifoFullRejects() const { return fullRejects.value(); }

    /**
     * Wire up fault injection (NicController, fault-enabled runs
     * only).  Frame transfers (host<->SDRAM) adopt a retry-once-then-
     * drop policy: a transient fault re-issues the burst once, a
     * second fault abandons the transfer and fires the command's
     * onFault hook.  Control-metadata transfers (host<->scratchpad)
     * retry until clean instead -- dropping a descriptor would leave
     * stale control state, which is corruption, not degradation.
     */
    void attachFaults(FaultInjector *f) { faults = f; }

    /** Register counters into the owner's stat tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;

    /** Timeline row for per-command spans (src/obs trace recorder). */
    void setTraceLane(unsigned lane) { traceLane = lane; }

  private:
    void startNext();
    void finishCurrent(bool faulted = false);
    void issueFrameBurst();
    void frameBurstDone();
    void spadWordLoop(Addr host, Addr local, std::size_t remaining,
                      bool to_spad);
    void spadWordStep();

    Scratchpad &spad;
    GddrSdram &sdram;
    HostMemory &host;
    unsigned spadRequester;
    unsigned sdramRequester;
    unsigned fifoDepth;

    std::deque<DmaCommand> queue;
    bool busy = false;
    /// @name Active scratchpad word-loop cursor
    /// Progress lives here rather than in per-word closures, so each
    /// word's crossbar callback captures only `this`.
    /// @{
    Addr curHost = 0;
    Addr curLocal = 0;
    std::size_t curRemaining = 0;
    bool curToSpad = false;
    /// @}
    unsigned traceLane = 0xffffffffu; //!< obs::noTraceLane
    Tick cmdStart = 0;                //!< start tick of the active command

    FaultInjector *faults = nullptr;  //!< null on fault-free runs
    bool curRetried = false; //!< active frame transfer already retried

    stats::Counter completed;
    stats::Counter bytes;
    stats::Counter headerBytes;
    stats::Counter payloadBytes;
    stats::Counter fullRejects;
};

} // namespace tengig

#endif // TENGIG_ASSIST_DMA_ASSIST_HH
