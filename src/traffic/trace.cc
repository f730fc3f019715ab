#include "trace.hh"

#include <cstring>
#include <istream>
#include <ostream>

#include "sim/logging.hh"
#include "traffic/flow.hh"

namespace tengig {

namespace {

constexpr char traceMagic[8] = {'T', 'G', 'T', 'R', 'A', 'C', 'E', '1'};

void
put32(std::uint8_t *at, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
put64(std::uint8_t *at, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
get32(const std::uint8_t *at)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(at[i]) << (8 * i);
    return v;
}

std::uint64_t
get64(const std::uint8_t *at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    return v;
}

} // namespace

TraceRecorder::TraceRecorder(std::ostream &os_) : os(os_)
{
    os.write(traceMagic, sizeof(traceMagic));
}

void
TraceRecorder::record(Tick tick, std::uint32_t flow, std::uint32_t seq,
                      unsigned payload_bytes)
{
    std::uint8_t buf[traceRecordBytes];
    put64(buf, tick);
    put32(buf + 8, flow);
    put32(buf + 12, seq);
    put32(buf + 16, payload_bytes);
    os.write(reinterpret_cast<const char *>(buf), sizeof(buf));
    ++count;
}

std::vector<TraceRecord>
readTrace(std::istream &in)
{
    char magic[sizeof(traceMagic)];
    in.read(magic, sizeof(magic));
    fatal_if(!in || std::memcmp(magic, traceMagic, sizeof(magic)) != 0,
             "not a traffic trace: bad magic");

    std::vector<TraceRecord> recs;
    std::uint8_t buf[traceRecordBytes];
    while (in.read(reinterpret_cast<char *>(buf), sizeof(buf))) {
        TraceRecord r;
        r.tick = get64(buf);
        r.flow = get32(buf + 8);
        r.seq = get32(buf + 12);
        r.payloadBytes = get32(buf + 16);
        fatal_if(!recs.empty() && r.tick < recs.back().tick,
                 "traffic trace record ", recs.size(), " has tick ",
                 r.tick, ", before its predecessor's ",
                 recs.back().tick);
        recs.push_back(r);
    }
    fatal_if(in.gcount() != 0 &&
                 in.gcount() != static_cast<std::streamsize>(sizeof(buf)),
             "truncated traffic trace record");
    return recs;
}

TraceReplayer::TraceReplayer(EventQueue &eq_,
                             std::vector<TraceRecord> records,
                             std::function<bool(FrameData &&)> sink_)
    : eq(eq_), recs(std::move(records)), sink(std::move(sink_))
{
}

TraceReplayer::TraceReplayer(EventQueue &eq_, std::istream &in,
                             std::function<bool(FrameData &&)> sink_)
    : TraceReplayer(eq_, readTrace(in), std::move(sink_))
{
}

void
TraceReplayer::start(Tick start_tick)
{
    running = true;
    next = 0;
    base = std::max(start_tick, eq.curTick());
    scheduleNext();
}

void
TraceReplayer::scheduleNext()
{
    if (!running || next >= recs.size())
        return;
    if (limit && offered.value() >= limit) {
        running = false;
        return;
    }
    Tick t = recs[next].tick;
    fatal_if(t > maxTick - base, "traffic trace record ", next,
             " tick ", t, " overflows when replayed from tick ", base);
    eq.schedule(base + t, [this] { fire(); },
                EventPriority::HardwareProgress);
}

void
TraceReplayer::fire()
{
    if (!running)
        return;
    const TraceRecord &r = recs[next];
    if (recorder)
        recorder->record(r.tick, r.flow, r.seq, r.payloadBytes);
    ++offered;
    if (!sink(makeFlowFrame(r.flow, r.seq, r.payloadBytes)))
        ++dropped;
    ++next;
    scheduleNext();
}

} // namespace tengig
