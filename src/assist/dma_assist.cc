#include "dma_assist.hh"

#include "fault/fault.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"

namespace tengig {

namespace {

const char *
kindName(DmaCommand::Kind k)
{
    switch (k) {
      case DmaCommand::Kind::HostToSdram: return "host->sdram";
      case DmaCommand::Kind::HostToSpad: return "host->spad";
      case DmaCommand::Kind::SdramToHost: return "sdram->host";
      case DmaCommand::Kind::SpadToHost: return "spad->host";
    }
    return "?";
}

} // namespace

DmaAssist::DmaAssist(EventQueue &eq, const ClockDomain &cpu_domain,
                     Scratchpad &spad_, GddrSdram &sdram_,
                     HostMemory &host_, unsigned spad_requester,
                     unsigned sdram_requester, unsigned fifo_depth)
    : Clocked(eq, cpu_domain), spad(spad_), sdram(sdram_), host(host_),
      spadRequester(spad_requester), sdramRequester(sdram_requester),
      fifoDepth(fifo_depth)
{}

bool
DmaAssist::push(DmaCommand cmd)
{
    if (full()) {
        ++fullRejects;
        return false;
    }
    queue.push_back(std::move(cmd));
    if (!busy)
        startNext();
    return true;
}

void
DmaAssist::startNext()
{
    if (queue.empty()) {
        busy = false;
        return;
    }
    busy = true;
    DmaCommand &cmd = queue.front();
    bytes += cmd.len;
    std::size_t pay = std::min(cmd.payloadLen, cmd.len);
    payloadBytes += pay;
    headerBytes += cmd.len - pay;
    cmdStart = curTick();

    switch (cmd.kind) {
      case DmaCommand::Kind::HostToSdram:
      case DmaCommand::Kind::SdramToHost:
        issueFrameBurst();
        return;

      case DmaCommand::Kind::HostToSpad:
      case DmaCommand::Kind::SpadToHost:
        spadWordLoop(cmd.hostAddr, cmd.localAddr, cmd.len,
                     cmd.kind == DmaCommand::Kind::HostToSpad);
        return;
    }
    panic("[dma assist] unreachable command kind @tick ", curTick());
}

void
DmaAssist::issueFrameBurst()
{
    DmaCommand &cmd = queue.front();
    bool is_write = cmd.kind == DmaCommand::Kind::HostToSdram;
    sdram.request(sdramRequester, cmd.localAddr, cmd.len, is_write,
                  [this] { frameBurstDone(); });
}

void
DmaAssist::frameBurstDone()
{
    DmaCommand &c = queue.front();
    if (faults && faults->rollMemFault(c.vf)) {
        if (!curRetried) {
            // Transient error: pay for one full re-issued burst.
            curRetried = true;
            faults->noteMemRetry(c.vf);
            issueFrameBurst();
            return;
        }
        // Retry also failed: abandon the transfer.  The destination
        // is left unwritten; onFault lets the owner degrade the frame
        // (poison / zero-length completion) instead of shipping the
        // stale bytes.
        faults->noteMemDrop(c.vf);
        finishCurrent(/*faulted=*/true);
        return;
    }
    // Functional copy at completion keeps the destination exact; the
    // overlay copy moves pattern spans without expanding them.
    if (c.kind == DmaCommand::Kind::HostToSdram)
        sdram.store().copyFrom(host.store(), c.hostAddr, c.localAddr,
                               c.len);
    else
        host.store().copyFrom(sdram.store(), c.localAddr, c.hostAddr,
                              c.len);
    finishCurrent();
}

void
DmaAssist::spadWordLoop(Addr host_addr, Addr local, std::size_t remaining,
                        bool to_spad)
{
    curHost = host_addr;
    curLocal = local;
    curRemaining = remaining;
    curToSpad = to_spad;
    spadWordStep();
}

void
DmaAssist::spadWordStep()
{
    if (curRemaining == 0) {
        DmaCommand &front = queue.front();
        if (faults && faults->rollMemFault(front.vf)) {
            // Control metadata (descriptors, completions) must never
            // be dropped -- stale control state is corruption, not
            // degradation -- so scratchpad transfers retry until
            // clean.  Replaying the word loop is idempotent.
            faults->noteMemRetry(front.vf);
            DmaCommand &c = queue.front();
            spadWordLoop(c.hostAddr, c.localAddr, c.len,
                         c.kind == DmaCommand::Kind::HostToSpad);
            return;
        }
        finishCurrent();
        return;
    }
    std::size_t chunk = std::min<std::size_t>(4, curRemaining);
    if (curToSpad) {
        // Move the word functionally now (DES events are atomic) and
        // charge the crossbar write.
        std::uint32_t word = 0;
        host.read(curHost, &word, chunk);
        spad.storage().storeWord(curLocal, word);
        curHost += chunk;
        curLocal += chunk;
        curRemaining -= chunk;
        spad.access(spadRequester, curLocal - chunk, SpadOp::Write,
                    [this](Cycles) { spadWordStep(); });
    } else {
        std::uint32_t word = spad.storage().loadWord(curLocal);
        host.write(curHost, &word, chunk);
        curHost += chunk;
        curLocal += chunk;
        curRemaining -= chunk;
        spad.access(spadRequester, curLocal - chunk, SpadOp::Read,
                    [this](Cycles) { spadWordStep(); });
    }
}

void
DmaAssist::finishCurrent(bool faulted)
{
    DmaCommand cmd = std::move(queue.front());
    queue.pop_front();
    curRetried = false;
    ++completed;
    if (obs::TraceLog *t = traceLog();
        t && t->enabled() && traceLane != obs::noTraceLane) {
        t->complete(traceLane,
                    std::string(kindName(cmd.kind)) +
                        (faulted ? " FAULT " : " ") +
                        std::to_string(cmd.len) + "B",
                    cmdStart, curTick() - cmdStart, "dma");
    }
    if (faulted && cmd.onFault)
        cmd.onFault();
    if (cmd.done)
        cmd.done();
    startNext();
}

void
DmaAssist::registerStats(obs::StatGroup &g) const
{
    g.add("commands", completed, "commands completed in FIFO order");
    g.add("bytes", bytes, "bytes moved (headers + payloads)");
    g.add("headerBytes", headerBytes,
          "header/descriptor bytes moved (bytes - payloadBytes)");
    g.add("payloadBytes", payloadBytes,
          "frame-payload bytes moved (virtual in steady state)");
    g.derived("depth",
              [this] { return static_cast<double>(queue.size()); },
              "commands currently queued");
    g.add("fifo_full_rejects", fullRejects,
          "pushes rejected on a full FIFO (caller must retry)");
}

} // namespace tengig
