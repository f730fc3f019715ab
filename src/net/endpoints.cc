#include "endpoints.hh"

#include "sim/logging.hh"

namespace tengig {

FrameSource::FrameSource(EventQueue &eq_, unsigned payload_bytes,
                         double rate, std::function<bool(FrameData &&)>
                         sink_)
    : eq(eq_), payloadBytes(payload_bytes), sink(std::move(sink_))
{
    fatal_if(rate <= 0.0 || rate > 1.0,
             "offered rate must be in (0, 1], got ", rate);
    unsigned frame = frameBytesForPayload(payload_bytes);
    interArrival = static_cast<Tick>(
        static_cast<double>(wireTimeForFrame(frame)) / rate + 0.5);
}

void
FrameSource::start(Tick start_tick)
{
    running = true;
    Tick at = std::max(start_tick, eq.curTick());
    eq.schedule(at, [this] { generateNext(); },
                EventPriority::HardwareProgress);
}

void
FrameSource::generateNext()
{
    if (!running)
        return;
    if (limit && offered.value() >= limit) {
        running = false;
        return;
    }

    unsigned frame = frameBytesForPayload(payloadBytes);
    // Descriptor-only frame: header filler seeded by the sequence
    // number, payload = fillPayload(seq, flow 0).  Bytes materialize
    // only if something downstream reads the frame non-uniformly.
    FrameData fd;
    fd.desc = FrameDesc{nextSeq, nextSeq, 0,
                        frame - ethCrcBytes - txHeaderBytes};
    ++nextSeq;
    ++offered;
    if (!sink(std::move(fd)))
        ++dropped;

    eq.scheduleIn(interArrival, [this] { generateNext(); },
                  EventPriority::HardwareProgress);
}

} // namespace tengig
