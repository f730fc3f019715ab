#include "sdram.hh"

#include <algorithm>
#include <cstring>

#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"

namespace tengig {

GddrSdram::GddrSdram(EventQueue &eq, const ClockDomain &domain,
                     const Config &cfg)
    : Clocked(eq, domain), config(cfg), mem(cfg.capacity),
      openRow(cfg.banks, -1)
{
    fatal_if(cfg.banks == 0, "sdram needs at least one bank");
    fatal_if(cfg.rowBytes == 0 || (cfg.rowBytes & (cfg.rowBytes - 1)),
             "sdram row size must be a power of two");
}

unsigned
GddrSdram::bankOf(Addr addr) const
{
    return static_cast<unsigned>((addr / config.rowBytes) % config.banks);
}

std::uint64_t
GddrSdram::rowOf(Addr addr) const
{
    return addr / (static_cast<std::uint64_t>(config.rowBytes) *
                   config.banks);
}

void
GddrSdram::request(unsigned requester, Addr addr, std::size_t len,
                   bool is_write, Callback cb)
{
    panic_if(requester >= config.numRequesters,
             "bad sdram requester ", requester);
    mem.boundsCheck(addr, len, "sdram burst");
    // A competing arrival before the chain boundary would have won the
    // boundary arbitration that batching skipped: un-batch first, then
    // queue normally so the boundary-tick arbitration replays exactly.
    if (chainPending && !chainRolled && requester != chainRequester)
        unbatchChain();
    queue.push_back(Burst{requester, addr, len, is_write, std::move(cb),
                          false, false});
    scheduleArbitration();
}

void
GddrSdram::requestPair(unsigned requester, Addr addr1, std::size_t len1,
                       Callback cb1, Addr addr2, std::size_t len2,
                       Callback cb2, bool is_write)
{
    panic_if(requester >= config.numRequesters,
             "bad sdram requester ", requester);
    mem.boundsCheck(addr1, len1, "sdram burst");
    mem.boundsCheck(addr2, len2, "sdram burst");
    if (chainPending && !chainRolled && requester != chainRequester)
        unbatchChain();
    queue.push_back(Burst{requester, addr1, len1, is_write,
                          std::move(cb1), true, false});
    queue.push_back(Burst{requester, addr2, len2, is_write,
                          std::move(cb2), false, true});
    scheduleArbitration();
}

void
GddrSdram::scheduleArbitration()
{
    if (arbScheduled || queue.empty())
        return;
    arbScheduled = true;
    Tick at = std::max(clockDomain().nextEdgeAtOrAfter(curTick()),
                       busUntil);
    eventQueue().schedule(at, [this] { arbitrate(); },
                          EventPriority::HardwareProgress);
}

GddrSdram::BurstTiming
GddrSdram::burstTiming(
    const Burst &b,
    std::vector<std::pair<unsigned, std::int64_t>> *undo)
{
    // Word-align the transfer window: unaligned leading/trailing bytes
    // still move across the pins and are masked, so they count as
    // consumed (but not useful) bandwidth.
    Addr first = b.addr & ~static_cast<Addr>(wordBytes - 1);
    Addr last = (b.addr + b.len + wordBytes - 1) &
                ~static_cast<Addr>(wordBytes - 1);

    BurstTiming t{};
    t.wireBytes = b.len ? last - first : 0;

    // Row activations: walk the row spans the burst touches.
    if (b.len) {
        Addr a = first;
        while (a < last) {
            unsigned bank = bankOf(a);
            std::int64_t row = static_cast<std::int64_t>(rowOf(a));
            if (openRow[bank] != row) {
                if (undo)
                    undo->emplace_back(bank, openRow[bank]);
                openRow[bank] = row;
                ++t.activations;
                t.activateCycles += config.rowActivateCycles;
            }
            Addr row_end = (a / config.rowBytes + 1) * config.rowBytes;
            a = std::min<Addr>(row_end, last);
        }
    }
    return t;
}

void
GddrSdram::arbitrate()
{
    arbScheduled = false;
    if (queue.empty())
        return;

    // Round-robin over requester ids; a granted burst runs to completion.
    std::size_t pick = 0;
    bool found = false;
    for (unsigned step = 0; step < config.numRequesters && !found;
         ++step) {
        unsigned want = (rrNext + step) % config.numRequesters;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (queue[i].requester == want) {
                pick = i;
                found = true;
                break;
            }
        }
    }
    Burst b = std::move(queue[pick]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
    rrNext = (b.requester + 1) % config.numRequesters;

    ++bursts;

    BurstTiming t = burstTiming(b, nullptr);
    Cycles beats = (t.wireBytes + beatBytes - 1) / beatBytes;
    activations += t.activations;
    Tick start = clockDomain().nextEdgeAtOrAfter(curTick());
    Tick done = start +
        clockDomain().cyclesToTicks(t.activateCycles + beats + 1);
    busUntil = done;
    busyTicks += done - start;
    useful += b.len;
    transferred += t.wireBytes;

    if (obs::TraceLog *tl = traceLog();
        tl && tl->enabled() && traceLane != obs::noTraceLane) {
        tl->complete(traceLane,
                     std::string(b.isWrite ? "wr " : "rd ") +
                         std::to_string(b.len) + "B",
                     start, done - start, "sdram");
    }

    // Chain batching: if the granted burst is a chain head whose tail
    // is the only other queued burst, the boundary arbitration at
    // `done` is a foregone conclusion -- the tail is granted back to
    // back.  Replay that grant arithmetically now (done is always a
    // bus edge, so the tail starts exactly at `done`), keeping the
    // tail's counter/trace effects deferred to the boundary tick so
    // every observable matches the unbatched schedule tick for tick.
    if (b.chainHead && !chainPending && queue.size() == 1 &&
        queue.front().chainTail &&
        queue.front().requester == b.requester) {
        chainPending = true;
        chainRolled = false;
        chainRequester = b.requester;
        chainDone1 = done;
        chainTailBurst = std::move(queue.front());
        queue.pop_front();
        chainUndo.clear();
        chainTailTiming = burstTiming(chainTailBurst, &chainUndo);
        Cycles beats2 =
            (chainTailTiming.wireBytes + beatBytes - 1) / beatBytes;
        chainStart2 = done;
        chainDone2 = chainStart2 +
            clockDomain().cyclesToTicks(chainTailTiming.activateCycles +
                                        beats2 + 1);
        busUntil = chainDone2;
        rrNext = (b.requester + 1) % config.numRequesters;
        chainTailEvent = eventQueue().schedule(
            chainDone2,
            [this] {
                chainTailEvent = invalidEventId;
                Callback cb = std::move(chainTailBurst.cb);
                chainTailBurst = Burst{};
                if (cb)
                    cb();
                scheduleArbitration();
            },
            EventPriority::HardwareProgress);
        ++chained;
        eventQueue().schedule(done,
                              [this, cb = std::move(b.cb)] {
                                  chainBoundary();
                                  if (cb)
                                      cb();
                                  if (chainRolled)
                                      scheduleArbitration();
                              },
                              EventPriority::ChainedCompletion);
        return;
    }

    eventQueue().schedule(done,
                          [this, cb = std::move(b.cb)] {
                              if (cb)
                                  cb();
                              scheduleArbitration();
                          },
                          EventPriority::HardwareProgress);
}

void
GddrSdram::chainBoundary()
{
    chainPending = false;
    if (chainRolled)
        return;
    // Commit the tail's grant-time effects at the tick the unbatched
    // schedule would have granted it, so window-edge stat snapshots
    // between the two bursts see identical counters.
    ++bursts;
    activations += chainTailTiming.activations;
    busyTicks += chainDone2 - chainStart2;
    useful += chainTailBurst.len;
    transferred += chainTailTiming.wireBytes;
    if (obs::TraceLog *tl = traceLog();
        tl && tl->enabled() && traceLane != obs::noTraceLane) {
        tl->complete(traceLane,
                     std::string(chainTailBurst.isWrite ? "wr " : "rd ") +
                         std::to_string(chainTailBurst.len) + "B",
                     chainStart2, chainDone2 - chainStart2, "sdram");
    }
}

void
GddrSdram::unbatchChain()
{
    // A competing request arrived in (grant, boundary]: the
    // pre-granted tail must instead contend at the boundary
    // arbitration.  Undo every speculative effect -- the tail goes
    // back to the queue front, the bus frees at the boundary, and the
    // row state the tail's walk clobbered is restored.
    chainRolled = true;
    bool ok = eventQueue().cancel(chainTailEvent);
    panic_if(!ok, "chained sdram tail event vanished");
    chainTailEvent = invalidEventId;
    busUntil = chainDone1;
    for (auto it = chainUndo.rbegin(); it != chainUndo.rend(); ++it)
        openRow[it->first] = it->second;
    chainUndo.clear();
    queue.push_front(std::move(chainTailBurst));
    chainTailBurst = Burst{};
    ++unbatched;
}

void
GddrSdram::writeBytes(Addr addr, const std::uint8_t *src, std::size_t len)
{
    mem.writeBytes(addr, src, len, "sdram write");
}

void
GddrSdram::readBytes(Addr addr, std::uint8_t *dst, std::size_t len) const
{
    mem.readBytes(addr, dst, len, "sdram read");
}

void
GddrSdram::registerStats(obs::StatGroup &g) const
{
    g.add("bursts", bursts, "granted bursts (run to completion)");
    g.add("usefulBytes", useful, "payload bytes requested by bursts");
    g.add("transferredBytes", transferred,
          "wire-level bytes including word-alignment padding");
    g.add("rowActivations", activations);
    g.add("busyTicks", busyTicks, "ticks the shared bus was occupied");
    g.add("chainedBursts", chained,
          "tail bursts granted back-to-back in one arbitration");
    g.add("unbatchedChains", unbatched,
          "chains rolled back by a competing same-window arrival");
    g.derived("materializations",
              [this] { return static_cast<double>(mem.materializations()); },
              "pattern spans expanded to bytes (0 = fully virtual)");
}

void
GddrSdram::resetStats()
{
    useful.reset();
    transferred.reset();
    activations.reset();
    bursts.reset();
    busyTicks.reset();
    chained.reset();
    unbatched.reset();
}

} // namespace tengig
