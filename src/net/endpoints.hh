/**
 * @file
 * Network-side frame generators: the link's receive direction, from
 * the NIC's point of view.
 *
 * The source paces arrivals with real Ethernet timing (preamble +
 * frame + IFG byte times at 10 Gb/s), so offering "line rate" means
 * exactly the paper's 812,744 frames/s for 1518-byte frames.  Frames
 * in both directions are validated by FlowSink (src/traffic).
 */

#ifndef TENGIG_NET_ENDPOINTS_HH
#define TENGIG_NET_ENDPOINTS_HH

#include <functional>

#include "net/frame.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tengig {

/**
 * Anything that offers a paced stream of frames to the NIC's receive
 * MAC: the fixed-size FrameSource below, the multi-flow TrafficEngine,
 * or a TraceReplayer (src/traffic).
 */
class FrameGenerator
{
  public:
    virtual ~FrameGenerator() = default;

    /** Begin generating frames at @p start_tick. */
    virtual void start(Tick start_tick = 0) = 0;

    /** Stop after the frame currently scheduled. */
    virtual void stop() = 0;

    /** Stop automatically after @p n frames have been offered. */
    virtual void setFrameLimit(std::uint64_t n) = 0;

    virtual std::uint64_t framesOffered() const = 0;
    virtual std::uint64_t framesDropped() const = 0;
};

/**
 * Generates a stream of UDP frames toward the NIC with wire pacing.
 */
class FrameSource : public FrameGenerator
{
  public:
    /**
     * @param payload_bytes UDP payload size for every frame.
     * @param rate Offered load as a fraction of line rate (0, 1].
     * @param sink Callback receiving each arriving frame; returns false
     *             if the NIC had to drop it (MAC buffer overrun).
     */
    FrameSource(EventQueue &eq, unsigned payload_bytes, double rate,
                std::function<bool(FrameData &&)> sink);

    void start(Tick start_tick = 0) override;
    void stop() override { running = false; }
    void setFrameLimit(std::uint64_t n) override { limit = n; }

    std::uint64_t framesOffered() const override { return offered.value(); }
    std::uint64_t framesDropped() const override { return dropped.value(); }

  private:
    void generateNext();

    EventQueue &eq;
    unsigned payloadBytes;
    Tick interArrival;
    std::function<bool(FrameData &&)> sink;
    std::uint32_t nextSeq = 0;
    std::uint64_t limit = 0; //!< 0 = unlimited
    bool running = false;

    stats::Counter offered;
    stats::Counter dropped;
};

} // namespace tengig

#endif // TENGIG_NET_ENDPOINTS_HH
