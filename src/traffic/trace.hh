/**
 * @file
 * Deterministic binary frame-schedule traces.
 *
 * A trace is the exact departure schedule of a generated workload:
 * one fixed-size record per offered frame (departure tick, flow id,
 * per-flow sequence number, payload bytes) behind an 8-byte magic.
 * Because frame contents are a pure function of (flow, seq, size),
 * replaying a trace regenerates the original traffic bit-for-bit --
 * any run, however random its generation models, becomes a
 * reproducible artifact.
 */

#ifndef TENGIG_TRAFFIC_TRACE_HH
#define TENGIG_TRAFFIC_TRACE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "net/endpoints.hh"
#include "sim/event_queue.hh"

namespace tengig {

/** One offered frame in a recorded schedule. */
struct TraceRecord
{
    Tick tick;
    std::uint32_t flow;
    std::uint32_t seq;
    std::uint32_t payloadBytes;

    bool
    operator==(const TraceRecord &o) const
    {
        return tick == o.tick && flow == o.flow && seq == o.seq &&
               payloadBytes == o.payloadBytes;
    }
};

/** On-disk record size (packed little-endian fields, no padding). */
constexpr unsigned traceRecordBytes = 8 + 4 + 4 + 4;

/** Streams departure records into a binary trace. */
class TraceRecorder
{
  public:
    /** Writes the trace header immediately. */
    explicit TraceRecorder(std::ostream &os);

    void record(Tick tick, std::uint32_t flow, std::uint32_t seq,
                unsigned payload_bytes);

    std::uint64_t records() const { return count; }

  private:
    std::ostream &os;
    std::uint64_t count = 0;
};

/**
 * Parse a whole trace.  Fatal on a bad header, a truncated record or
 * a record whose tick is below its predecessor's (equal ticks are
 * legal).
 */
std::vector<TraceRecord> readTrace(std::istream &in);

/**
 * Replays a recorded schedule as a FrameGenerator: every frame is
 * rebuilt from its (flow, seq, size) record and offered at its
 * recorded tick (plus the start offset).  Fatal when a record's tick
 * plus the start offset overflows Tick.
 */
class TraceReplayer : public FrameGenerator
{
  public:
    TraceReplayer(EventQueue &eq, std::vector<TraceRecord> records,
                  std::function<bool(FrameData &&)> sink);

    /** Convenience: parse @p in, then replay it. */
    TraceReplayer(EventQueue &eq, std::istream &in,
                  std::function<bool(FrameData &&)> sink);

    void start(Tick start_tick = 0) override;
    void stop() override { running = false; }
    void setFrameLimit(std::uint64_t n) override { limit = n; }

    std::uint64_t framesOffered() const override { return offered.value(); }
    std::uint64_t framesDropped() const override { return dropped.value(); }

    /** Re-record the replayed schedule (round-trip checks). */
    void record(TraceRecorder *rec) { recorder = rec; }

    std::size_t records() const { return recs.size(); }

  private:
    void scheduleNext();
    void fire();

    EventQueue &eq;
    std::vector<TraceRecord> recs;
    std::function<bool(FrameData &&)> sink;
    TraceRecorder *recorder = nullptr;
    std::size_t next = 0;
    Tick base = 0;
    std::uint64_t limit = 0; //!< 0 = unlimited
    bool running = false;

    stats::Counter offered;
    stats::Counter dropped;
};

} // namespace tengig

#endif // TENGIG_TRAFFIC_TRACE_HH
