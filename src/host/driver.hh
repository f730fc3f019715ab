/**
 * @file
 * Host device-driver model (Section 2 of the paper).
 *
 * Implements the driver half of the send/receive protocols of Figs. 1
 * and 2: it builds buffer descriptors in host-memory rings (two per
 * sent frame -- a 42-byte header BD and a payload BD, matching the
 * paper's discontiguous-regions observation), rings mailbox doorbells,
 * preallocates and replenishes the receive buffer pool, and consumes
 * completions, handing every delivered frame to one delivery hook.
 * Validation is not the driver's job: the hook's owner (the NIC
 * controller) checks order and integrity with a FlowSink.
 *
 * Host CPU time and host-interconnect latency are untimed (paper §5);
 * the driver reacts instantly to NIC notifications.
 */

#ifndef TENGIG_HOST_DRIVER_HH
#define TENGIG_HOST_DRIVER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/host_memory.hh"
#include "net/frame.hh"
#include "sim/stats.hh"

namespace tengig {

/** A buffer descriptor as written into the host rings (16 bytes). */
struct BufferDesc
{
    std::uint64_t hostAddr;
    std::uint32_t len;
    std::uint32_t flags;

    static constexpr std::uint32_t flagFirst = 1u << 0;
    static constexpr std::uint32_t flagLast = 1u << 1;
    static constexpr std::uint32_t flagTso = 1u << 2;
    /** Segment count for TSO BDs lives in flags[15:8]. */
    static constexpr unsigned segmentShift = 8;
    static constexpr unsigned bytes = 16;
};

/**
 * The driver: owns the host-side rings and buffer pools.
 */
class DeviceDriver
{
  public:
    struct Config
    {
        unsigned sendRingFrames = 1024;  //!< outstanding TX frames
        unsigned recvPoolBuffers = 1024; //!< outstanding RX buffers
        unsigned recvPostBatch = 64;     //!< BDs posted per doorbell
        unsigned txPayloadBytes = udpMaxPayloadBytes;
        /**
         * Deferred segmentation (the paper's future-work TSO, after
         * reference [4]): when > 1, each posted descriptor pair
         * covers this many frames -- one 42-byte header template BD
         * plus one large payload BD the NIC slices into frames.
         */
        unsigned tsoSegments = 1;

        /**
         * Multi-flow workload source: asked for posted frame number i,
         * returns (flow id, payload bytes) or nullopt when no frame is
         * eligible right now (a paced or rate-limited source).  When
         * set, txPayloadBytes is ignored, every frame carries its
         * flow's own sequence space, and TSO must be off (mixed sizes
         * cannot share one sliced buffer).  On nullopt the driver
         * stops posting without error; whoever owns the scheduler
         * calls resumeSend() once a frame becomes eligible.
         */
        std::function<std::optional<std::pair<std::uint32_t, unsigned>>(
            std::uint64_t)>
            txFrameNext;
    };

    DeviceDriver(HostMemory &host, const Config &cfg);

    /// @name NIC-facing doorbell wiring
    /// @{
    /** Install the doorbell the driver rings after posting send BDs. */
    void
    onSendDoorbell(std::function<void(std::uint64_t total_bds)> fn)
    {
        sendDoorbell = std::move(fn);
    }

    /** Install the doorbell for newly posted receive BDs. */
    void
    onRecvDoorbell(std::function<void(std::uint64_t total_bds)> fn)
    {
        recvDoorbell = std::move(fn);
    }
    /// @}

    /**
     * Enter backlogged-transmit mode: the send ring is kept full for
     * the whole run (the paper's saturation workloads).
     */
    void startBackloggedSend();

    /** Post exactly @p n frames (tests / finite workloads).  With a
     *  txFrameNext source, posts *up to* @p n, stopping early when
     *  the source reports nothing eligible. */
    void postSendFrames(unsigned n);

    /** Refill the send ring after a txFrameNext source went dry (only
     *  meaningful in backlogged mode; otherwise a no-op). */
    void resumeSend();

    /** Initial fill of the receive pool. */
    void primeReceivePool();

    /// @name NIC-side accessors (used by the DMA glue)
    /// @{
    Addr sendBdRingBase() const { return sendRing; }
    Addr recvBdRingBase() const { return recvRing; }
    Addr recvReturnRingBase() const { return recvReturnRing; }
    Addr txConsumedMailbox() const { return txConsumedAddr; }
    unsigned sendRingCapacityBds() const { return sendRingBds; }
    unsigned recvRingCapacityBds() const { return recvRingBds; }
    /// @}

    /// @name Completion entry points (the NIC's "interrupts")
    /// @{
    /** TX: the NIC consumed (transmitted) frames up to @p frames. */
    void txConsumedUpTo(std::uint64_t frames);

    /** RX: one completion descriptor landed in the host ring. */
    void rxCompletion(Addr host_buf, std::uint32_t len);
    /// @}

    /**
     * Hook fired for every delivered receive frame (header + payload):
     * the host stack's consumer, which validates and observes it.
     * Clean frames arrive as descriptor-backed views (O(1) validation).
     */
    void
    onRxDeliver(std::function<void(const FrameView &)> fn)
    {
        rxDeliver = std::move(fn);
    }

    /// @name Workload statistics
    /// @{
    std::uint64_t txFramesPosted() const { return txPosted; }
    std::uint64_t txFramesConsumed() const { return txConsumed; }
    std::uint64_t rxFramesDelivered() const { return rxDelivered.value(); }

    /** Zero-length completions: the NIC abandoned the frame's content
     *  DMA under fault injection; the buffer was recycled without
     *  delivering the (stale) bytes.  Graceful degradation: the
     *  frame never reaches the delivery hook. */
    std::uint64_t rxFaultDropCount() const { return rxFaultDrops.value(); }

    std::uint64_t recvBdsPosted() const { return rxBdsPosted; }
    /// @}

    /**
     * (flow, flow-local sequence) the driver stamped into posted frame
     * number @p seq.  Ring-indexed by the send ring, so valid for any
     * frame not yet consumed -- which is exactly when the firmware can
     * still skip it.  Lets the fault plumbing translate a skipped
     * firmware sequence into the per-flow hole the wire-side validator
     * should expect.
     */
    std::pair<std::uint32_t, std::uint32_t>
    txFrameMeta(std::uint64_t seq) const
    {
        return txPostedMeta[seq % config.sendRingFrames];
    }

  private:
    bool postOneSendFrame();
    void postRecvBds(unsigned n);

    HostMemory &host;
    Config config;

    // TX state.
    Addr sendRing;            //!< BD ring base in host memory
    unsigned sendRingBds;
    Addr txBufBase;           //!< per-frame header+payload buffers
    std::uint64_t txPosted = 0;
    std::uint64_t txConsumed = 0;
    bool backlogged = false;
    std::function<void(std::uint64_t)> sendDoorbell;
    std::unordered_map<std::uint32_t, std::uint32_t> txFlowSeq;
    /** Ring of (flow, flow seq) per posted frame; see txFrameMeta(). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> txPostedMeta;

    // RX state.
    Addr recvRing;
    Addr recvReturnRing;      //!< completion descriptors land here
    Addr txConsumedAddr;      //!< 4-byte consumed-index mailbox
    unsigned recvRingBds;
    Addr rxBufBase;
    std::uint64_t rxBdsPosted = 0;
    std::uint64_t rxBuffersReturned = 0;
    std::function<void(std::uint64_t)> recvDoorbell;
    std::function<void(const FrameView &)> rxDeliver;

    stats::Counter rxDelivered;
    stats::Counter rxFaultDrops;
};

} // namespace tengig

#endif // TENGIG_HOST_DRIVER_HH
