/**
 * @file
 * Medium-access-control hardware assists.
 *
 * MacTx drains a firmware-filled command FIFO: each command names a
 * frame image in the SDRAM transmit buffer.  Frames are prefetched
 * (double-buffered, as in the paper's two-maximum-frames of assist
 * buffering) over the internal bus and serialized onto the wire with
 * real Ethernet pacing (preamble + frame + IFG at 0.8 ns/byte).
 *
 * MacRx accepts paced frame arrivals from the network model, asks the
 * firmware-configured allocator for an SDRAM receive slot, streams the
 * frame into it, and then reports the stored frame.  Arrivals that find
 * the double buffer or the receive ring full are dropped -- receive
 * overruns are exactly how an overloaded NIC sheds load in Figure 8's
 * small-frame regime.
 */

#ifndef TENGIG_ASSIST_MAC_HH
#define TENGIG_ASSIST_MAC_HH

#include <deque>
#include <functional>
#include <optional>

#include "mem/sdram.hh"
#include "net/frame.hh"
#include "sim/clock.hh"
#include "sim/stats.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Transmit MAC: SDRAM -> wire.
 */
class MacTx : public Clocked
{
  public:
    struct Command
    {
        Addr sdramAddr;
        unsigned lenBytes;           //!< header+payload bytes (no CRC)
        std::function<void()> done;  //!< fires when the frame has left
        /** Poisoned frame: flow through both MAC stages (preserving
         *  completion order for every other frame) but touch neither
         *  the SDRAM bus nor the wire, and deliver nothing. */
        bool skip = false;
    };

    /** Wire-side consumer of transmitted frames (header+payload).
     *  Steady-state frames arrive as descriptor-backed views straight
     *  from the SDRAM overlay -- no byte copy, no allocation. */
    using Deliver = std::function<void(const FrameView &)>;

    MacTx(EventQueue &eq, const ClockDomain &domain, GddrSdram &sdram,
          Deliver deliver, unsigned sdram_requester,
          unsigned fifo_depth = 32);

    /** @retval false if the command FIFO is full. */
    bool push(Command cmd);

    bool full() const { return queue.size() >= fifoDepth; }
    std::size_t depth() const { return queue.size(); }
    unsigned capacity() const { return fifoDepth; }
    std::uint64_t framesSent() const { return frames.value(); }
    std::uint64_t wireBytesSent() const { return wireBytes.value(); }

    /** Poisoned commands retired without transmitting. */
    std::uint64_t framesSkipped() const { return skipped.value(); }

    /** Achieved transmit throughput (payload+headers, no overhead). */
    double
    frameBandwidthGbps(Tick now) const
    {
        if (now == 0)
            return 0.0;
        return static_cast<double>(frameBytes.value()) * 8.0 /
               (static_cast<double>(now) / tickPerSec) / 1e9;
    }

    /** Register counters into the owner's stat tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;

    /** Fault-path counters (registered only on fault-enabled runs). */
    void registerFaultStats(obs::StatGroup &g) const;

    /** Timeline row for wire-occupancy spans (src/obs recorder). */
    void setTraceLane(unsigned lane) { traceLane = lane; }

  private:
    void tryFetch();
    void fetchDone();
    void enqueueWire(Command cmd);
    void wireDone();

    GddrSdram &sdram;
    Deliver deliver;
    unsigned sdramRequester;
    unsigned fifoDepth;

    std::deque<Command> queue;
    /// @name In-flight frame state
    /// Frames awaiting SDRAM fetch and frames serializing onto the wire
    /// live in member queues, so the bus/event callbacks capture only
    /// `this`.  Both stages complete strictly in issue order: the SDRAM
    /// bus is per-requester FIFO and wire end times are monotonic.
    /// @{
    std::deque<Command> fetchInFlight;
    struct WireEntry
    {
        Command cmd;
        unsigned frame; //!< CRC-inclusive on-wire frame bytes
    };
    std::deque<WireEntry> onWire;
    /// @}
    unsigned fetching = 0;       //!< frames being read from SDRAM
    static constexpr unsigned maxBuffered = 2;
    Tick wireBusyUntil = 0;
    unsigned traceLane = 0xffffffffu; //!< obs::noTraceLane

    stats::Counter frames;
    stats::Counter frameBytes;
    stats::Counter wireBytes;
    stats::Counter skipped;
};

/**
 * Receive MAC: wire -> SDRAM.
 */
class MacRx : public Clocked
{
  public:
    /** Where an arriving frame was put. */
    struct StoredFrame
    {
        Addr sdramAddr;
        unsigned lenBytes;
    };

    /**
     * @param alloc_slot Firmware-configured receive-slot allocator;
     *        returns the SDRAM address for a frame of the given length
     *        or nullopt when the receive ring is exhausted.
     * @param on_stored Fired when the frame is fully resident in SDRAM.
     */
    MacRx(EventQueue &eq, const ClockDomain &domain, GddrSdram &sdram,
          unsigned sdram_requester,
          std::function<std::optional<Addr>(unsigned)> alloc_slot,
          std::function<void(const StoredFrame &)> on_stored);

    /**
     * A frame arrived from the network.
     * @retval false if it had to be dropped.
     */
    bool frameArrived(FrameData &&fd);

    std::uint64_t framesStored() const { return frames.value(); }
    std::uint64_t framesDropped() const { return drops.value(); }

    /// @name Malformed-frame drops (length / CRC checks)
    /// Counted separately from the overload `drops` above so each
    /// injected wire-fault class is accounted for exactly once.
    /// @{
    std::uint64_t runtDrops() const { return runts.value(); }
    std::uint64_t oversizeDrops() const { return oversizes.value(); }
    std::uint64_t crcDrops() const { return crcErrors.value(); }
    std::uint64_t truncatedDrops() const { return truncated.value(); }
    std::uint64_t
    malformedDrops() const
    {
        return runts.value() + oversizes.value() + crcErrors.value() +
               truncated.value();
    }
    /// @}

    /** Register counters into the owner's stat tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;

    /** Fault-path counters (registered only on fault-enabled runs). */
    void registerFaultStats(obs::StatGroup &g) const;

    /** Timeline row for SDRAM store spans (src/obs recorder). */
    void setTraceLane(unsigned lane) { traceLane = lane; }

  private:
    GddrSdram &sdram;
    unsigned sdramRequester;
    std::function<std::optional<Addr>(unsigned)> allocSlot;
    std::function<void(const StoredFrame &)> onStored;

    void storeComplete(Addr addr, unsigned len, Tick arrived);

    unsigned storing = 0; //!< frames being written to SDRAM
    static constexpr unsigned maxBuffered = 2;
    unsigned traceLane = 0xffffffffu; //!< obs::noTraceLane

    stats::Counter frames;
    stats::Counter drops;
    stats::Counter runts;
    stats::Counter oversizes;
    stats::Counter crcErrors;
    stats::Counter truncated;
};

} // namespace tengig

#endif // TENGIG_ASSIST_MAC_HH
