#include "mac.hh"

#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"

namespace tengig {

MacTx::MacTx(EventQueue &eq, const ClockDomain &domain, GddrSdram &sdram_,
             Deliver deliver_, unsigned sdram_requester,
             unsigned fifo_depth)
    : Clocked(eq, domain), sdram(sdram_), deliver(std::move(deliver_)),
      sdramRequester(sdram_requester), fifoDepth(fifo_depth)
{}

bool
MacTx::push(Command cmd)
{
    if (full())
        return false;
    queue.push_back(std::move(cmd));
    tryFetch();
    return true;
}

void
MacTx::tryFetch()
{
    // Double buffering: fetch the next frame from SDRAM while at most
    // one other frame is in flight ahead of it.
    if (fetching >= maxBuffered || queue.empty())
        return;
    Command cmd = std::move(queue.front());
    queue.pop_front();
    ++fetching;
    Addr addr = cmd.sdramAddr;
    // A skipped (poisoned) frame still flows through the fetch stage
    // as a zero-length burst: it moves no data, but the bus queue is
    // per-requester FIFO, so completion order against every real
    // frame ahead of and behind it is preserved.
    unsigned len = cmd.skip ? 0 : cmd.lenBytes;
    fetchInFlight.push_back(std::move(cmd));
    sdram.request(sdramRequester, addr, len, false,
                  [this] { fetchDone(); });
}

void
MacTx::fetchDone()
{
    Command cmd = std::move(fetchInFlight.front());
    fetchInFlight.pop_front();
    enqueueWire(std::move(cmd));
}

void
MacTx::enqueueWire(Command cmd)
{
    if (cmd.skip) {
        // Zero-duration wire slot at the current wire frontier: fires
        // after every earlier frame's wireDone (same-tick events pop
        // in insertion order) and leaves wireBusyUntil untouched.
        Tick at = std::max(curTick(), wireBusyUntil);
        onWire.push_back(WireEntry{std::move(cmd), 0});
        eventQueue().schedule(at, [this] { wireDone(); },
                              EventPriority::HardwareProgress);
        return;
    }
    // Serialize onto the wire with Ethernet pacing; compute CRC-
    // inclusive on-wire length.
    unsigned frame = cmd.lenBytes + ethCrcBytes;
    if (frame < ethMinFrameBytes)
        frame = ethMinFrameBytes;
    Tick start = std::max(curTick(), wireBusyUntil);
    Tick end = start + wireTimeForFrame(frame);
    wireBusyUntil = end;

    if (obs::TraceLog *t = traceLog();
        t && t->enabled() && traceLane != obs::noTraceLane) {
        t->complete(traceLane, "tx " + std::to_string(frame) + "B",
                    start, end - start, "mac");
    }

    onWire.push_back(WireEntry{std::move(cmd), frame});
    eventQueue().schedule(end, [this] { wireDone(); },
                          EventPriority::HardwareProgress);
}

void
MacTx::wireDone()
{
    WireEntry e = std::move(onWire.front());
    onWire.pop_front();
    if (e.cmd.skip) {
        // Poisoned frame: retire the command without delivering
        // anything or counting a transmission.
        ++skipped;
        --fetching;
        if (e.cmd.done)
            e.cmd.done();
        tryFetch();
        return;
    }
    if (auto desc = sdram.viewFrame(e.cmd.sdramAddr, e.cmd.lenBytes)) {
        // Steady state: the slot holds one whole-frame pattern span;
        // hand the descriptor straight to the sink.
        FrameView v;
        v.desc = &*desc;
        v.len = e.cmd.lenBytes;
        deliver(v);
    } else {
        // Materialized / partially dirty slot: fall back to bytes.
        std::vector<std::uint8_t> bytes(e.cmd.lenBytes);
        sdram.readBytes(e.cmd.sdramAddr, bytes.data(), e.cmd.lenBytes);
        FrameView v;
        v.bytes = bytes.data();
        v.len = e.cmd.lenBytes;
        deliver(v);
    }
    ++frames;
    frameBytes += e.frame;
    wireBytes += wireBytesForFrame(e.frame);
    --fetching;
    if (e.cmd.done)
        e.cmd.done();
    tryFetch();
}

MacRx::MacRx(EventQueue &eq, const ClockDomain &domain, GddrSdram &sdram_,
             unsigned sdram_requester,
             std::function<std::optional<Addr>(unsigned)> alloc_slot,
             std::function<void(const StoredFrame &)> on_stored)
    : Clocked(eq, domain), sdram(sdram_),
      sdramRequester(sdram_requester), allocSlot(std::move(alloc_slot)),
      onStored(std::move(on_stored))
{}

bool
MacRx::frameArrived(FrameData &&fd)
{
    // Length + (modeled) CRC validation runs before any buffering: a
    // damaged frame is rejected at the MAC and never reaches firmware
    // or the host, whatever the buffer state.  Healthy traffic never
    // trips these, so the checks are timing-invisible by construction.
    unsigned len = fd.size();
    if (len < ethMinFrameBytes - ethCrcBytes) {
        ++runts;
        return false;
    }
    if (len > ethMaxFrameBytes - ethCrcBytes) {
        ++oversizes;
        return false;
    }
    if (fd.wireFault == WireFault::Crc) {
        ++crcErrors;
        return false;
    }
    if (fd.wireFault == WireFault::Truncated) {
        ++truncated;
        return false;
    }
    if (storing >= maxBuffered) {
        ++drops;
        return false;
    }
    std::optional<Addr> slot = allocSlot(len);
    if (!slot) {
        ++drops;
        return false;
    }
    ++storing;
    Addr addr = *slot;
    Tick arrived = curTick();
    if (fd.desc) {
        // Descriptor frame: the store burst pays full SDRAM timing but
        // lands as a 16-byte pattern span, not ~1.5 KB of bytes.
        sdram.request(sdramRequester, addr, len, true,
                      [this, addr, len, arrived, d = *fd.desc]() {
                          sdram.store().putFrame(addr, d);
                          storeComplete(addr, len, arrived);
                      });
    } else {
        sdram.request(sdramRequester, addr, len, true,
                      [this, addr, arrived,
                       data = std::move(fd.bytes)]() {
                          sdram.writeBytes(addr, data.data(),
                                           data.size());
                          storeComplete(
                              addr, static_cast<unsigned>(data.size()),
                              arrived);
                      });
    }
    return true;
}

void
MacRx::storeComplete(Addr addr, unsigned len, Tick arrived)
{
    ++frames;
    --storing;
    if (obs::TraceLog *t = traceLog();
        t && t->enabled() && traceLane != obs::noTraceLane) {
        t->complete(traceLane, "rx " + std::to_string(len) + "B",
                    arrived, curTick() - arrived, "mac");
    }
    onStored(StoredFrame{addr, len});
}

void
MacTx::registerStats(obs::StatGroup &g) const
{
    g.add("frames", frames, "frames serialized onto the wire");
    g.add("frameBytes", frameBytes, "CRC-inclusive frame bytes");
    g.add("wireBytes", wireBytes,
          "on-wire bytes including preamble and IFG");
}

void
MacTx::registerFaultStats(obs::StatGroup &g) const
{
    g.add("skipped", skipped, "poisoned frames retired untransmitted");
}

void
MacRx::registerStats(obs::StatGroup &g) const
{
    g.add("frames", frames, "frames fully stored to SDRAM");
    g.add("drops", drops, "arrivals shed at the MAC (buffer/ring full)");
}

void
MacRx::registerFaultStats(obs::StatGroup &g) const
{
    g.add("runt_drops", runts, "frames below the 60 B minimum");
    g.add("oversize_drops", oversizes, "frames above the 1514 B maximum");
    g.add("crc_drops", crcErrors, "frames failing the CRC check");
    g.add("trunc_drops", truncated, "frames cut short mid-reception");
}

} // namespace tengig
