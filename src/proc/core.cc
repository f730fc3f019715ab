#include "core.hh"

#include "obs/stat_registry.hh"
#include "obs/trace_log.hh"

namespace tengig {

const char *
funcTagName(FuncTag t)
{
    switch (t) {
      case FuncTag::FetchSendBd: return "Fetch Send BD";
      case FuncTag::SendFrame: return "Send Frame";
      case FuncTag::SendDispatch: return "Send Dispatch and Ordering";
      case FuncTag::SendLock: return "Send Locking";
      case FuncTag::FetchRecvBd: return "Fetch Receive BD";
      case FuncTag::RecvFrame: return "Receive Frame";
      case FuncTag::RecvDispatch: return "Receive Dispatch and Ordering";
      case FuncTag::RecvLock: return "Receive Locking";
      case FuncTag::Idle: return "Idle";
      default: return "?";
    }
}

CodeLayout
CodeLayout::uniform(Addr region_bytes)
{
    CodeLayout l;
    for (std::size_t i = 0; i < numFuncTags; ++i) {
        l.base[i] = static_cast<Addr>(i) * region_bytes;
        l.size[i] = region_bytes;
    }
    return l;
}

Core::Core(EventQueue &eq, const ClockDomain &domain, unsigned id,
           Dispatcher &dispatcher_, Scratchpad &spad_, ICache &icache_,
           const CodeLayout &layout_, FirmwareProfile &profile_)
    : Clocked(eq, domain), coreId(id), dispatcher(dispatcher_),
      spad(spad_), icache(icache_), layout(layout_), profile(profile_)
{
    invEvent.init(*this, [this] { nextInvocation(); }, EventPriority::Cpu);
    opEvent.init(*this, [this] { beginOp(); }, EventPriority::Cpu);
    issueEvent.init(*this, [this] { issueMem(); }, EventPriority::Cpu);
    storeEvent.init(*this, [this] { tryIssueStore(); }, EventPriority::Cpu);
}

void
Core::start()
{
    running = true;
    if (!invEvent.scheduled())
        invEvent.scheduleCycles(0);
}

void
Core::registerStats(obs::StatGroup &g) const
{
    g.derived("instructions",
              [this] { return static_cast<double>(stats().instructions); });
    g.derived("ipc", [this] { return stats().ipc(); },
              "instructions per total cycle (Table 3)");
    g.derived("executeCycles",
              [this] { return static_cast<double>(stats().executeCycles); });
    g.derived("imissCycles",
              [this] { return static_cast<double>(stats().imissCycles); });
    g.derived("loadStallCycles", [this] {
        return static_cast<double>(stats().loadStallCycles);
    });
    g.derived("conflictCycles", [this] {
        return static_cast<double>(stats().conflictCycles);
    });
    g.derived("pipelineCycles", [this] {
        return static_cast<double>(stats().pipelineCycles);
    });
    g.derived("idleCycles",
              [this] { return static_cast<double>(stats().idleCycles); });
    g.derived("invocations",
              [this] { return static_cast<double>(stats().invocations); });
    g.derived("idlePolls",
              [this] { return static_cast<double>(stats().idlePolls); });
}

void
Core::account(FuncTag tag, std::uint64_t instrs, std::uint64_t mem,
              std::uint64_t cycles)
{
    auto &b = profile[tag];
    b.instructions += instrs;
    b.memAccesses += mem;
    b.cycles += cycles;
}

void
Core::nextInvocation()
{
    // The previous invocation (if traced) ends here, whether or not the
    // core keeps running.
    if (invTraced) {
        invTraced = false;
        if (obs::TraceLog *t = traceLog(); t && t->enabled()) {
            t->complete(traceLane, funcTagName(invTag), invStart,
                        curTick() - invStart, "firmware");
        }
    }
    if (!running)
        return;
    dispatcher.next(coreId, current);
    opIdx = 0;
    actIdx = 0;
    if (current.idlePoll) {
        ++_stats.idlePolls;
    } else {
        ++_stats.invocations;
        lastRetire = curTick();
    }
    if (!current.idlePoll && !current.ops.empty() &&
        traceLane != obs::noTraceLane) {
        if (obs::TraceLog *t = traceLog(); t && t->enabled()) {
            invTraced = true;
            invStart = curTick();
            // Name the span after the first firmware (non-Idle) op tag.
            invTag = FuncTag::Idle;
            for (const MicroOp &op : current.ops) {
                if (op.tag != FuncTag::Idle) {
                    invTag = op.tag;
                    break;
                }
            }
        }
    }
    if (current.ops.empty()) {
        // Degenerate dispatcher result: charge one idle cycle so
        // simulated time always advances.
        _stats.idleCycles += 1;
        invEvent.scheduleCycles(1);
        return;
    }
    beginOp();
}

Cycles
Core::fetchStall(FuncTag tag, unsigned instrs)
{
    std::size_t ti = static_cast<std::size_t>(tag);
    Addr region = layout.size[ti];
    if (region == 0)
        return 0;
    Tick stall = 0;
    Addr off = pcOffset[ti];
    unsigned shift = icache.lineShift();
    Addr line = icache.lineSize();
    Addr bytes = static_cast<Addr>(instrs) * 4;
    // Touch every I-cache line the PC range covers, wrapping within the
    // bucket's code region (wrap models loop back-edges re-executing
    // resident lines).
    Addr first_line = off >> shift;
    Addr last_line = (off + (bytes ? bytes - 1 : 0)) >> shift;
    Addr base = layout.base[ti];
    Addr wrapped = first_line << shift; // off < region, so wrapped < region
    for (Addr l = first_line; l <= last_line; ++l) {
        stall += icache.lookup(base + wrapped, curTick() + stall);
        wrapped += line;
        while (wrapped >= region)
            wrapped -= region;
    }
    Addr next = off + bytes;
    if (next >= region)
        next %= region;
    pcOffset[ti] = next;
    return clockDomain().ticksToCycles(stall);
}

void
Core::chargeImiss(FuncTag tag, Cycles imiss)
{
    if (!imiss)
        return;
    if (tag == FuncTag::Idle)
        _stats.idleCycles += imiss;
    else
        _stats.imissCycles += imiss;
    account(tag, 0, 0, imiss);
}

void
Core::beginOp()
{
    if (opIdx >= current.ops.size()) {
        nextInvocation();
        return;
    }
    MicroOp &op = current.ops[opIdx];
    FuncTag tag = op.tag;
    bool idle_tag = (tag == FuncTag::Idle);

    switch (op.kind) {
      case OpKind::Action:
        // Closures live out-of-line and are consumed in stream order;
        // the recorder only emits Action ops for non-empty closures.
        current.actions[actIdx++]();
        ++opIdx;
        beginOp();
        return;

      case OpKind::Alu: {
        Cycles imiss = fetchStall(tag, op.count);
        chargeImiss(tag, imiss);
        Cycles busy = op.count + op.hazard;
        _stats.instructions += op.count;
        if (idle_tag) {
            _stats.idleCycles += busy;
        } else {
            _stats.executeCycles += op.count;
            _stats.pipelineCycles += op.hazard;
        }
        account(tag, op.count, 0, busy);
        ++opIdx;
        opEvent.scheduleCycles(busy + imiss);
        return;
      }

      case OpKind::MemRead:
      case OpKind::MemRmw: {
        Cycles imiss = fetchStall(tag, 1);
        chargeImiss(tag, imiss);
        if (imiss)
            issueEvent.scheduleCycles(imiss);
        else
            issueMem();
        return;
      }

      case OpKind::MemWrite: {
        Cycles imiss = fetchStall(tag, 1);
        chargeImiss(tag, imiss);
        pendingTag = tag;
        pendingAddr = op.addr;
        if (imiss)
            storeEvent.scheduleCycles(imiss);
        else
            tryIssueStore();
        return;
      }
    }
    panic("[core ", coreId, "] unreachable op kind @tick ", curTick());
}

void
Core::issueMem()
{
    const MicroOp &op = current.ops[opIdx];
    SpadOp sop = (op.kind == OpKind::MemRead) ? SpadOp::Read
                                              : SpadOp::RmwTiming;
    spad.access(coreId, op.addr, sop, 0,
                [this](const Scratchpad::Response &r) { memResponse(r); });
}

void
Core::memResponse(const Scratchpad::Response &r)
{
    const MicroOp &op = current.ops[opIdx];
    FuncTag tag = op.tag;
    Cycles total = 2 + r.conflictCycles;
    _stats.instructions += 1;
    if (tag == FuncTag::Idle) {
        _stats.idleCycles += total;
    } else {
        _stats.executeCycles += 1;
        _stats.loadStallCycles += 1;
        _stats.conflictCycles += r.conflictCycles;
    }
    account(tag, 1, 1, total);
    ++opIdx;
    beginOp();
}

void
Core::tryIssueStore()
{
    FuncTag tag = pendingTag;
    bool idle_tag = (tag == FuncTag::Idle);
    if (storeBufferBusy) {
        // Structural stall: the single-entry store buffer still waits
        // on its bank grant; attribute the wait to bank conflicts.
        if (idle_tag)
            _stats.idleCycles += 1;
        else
            _stats.conflictCycles += 1;
        account(tag, 0, 0, 1);
        storeEvent.scheduleCycles(1);
        return;
    }
    storeBufferBusy = true;
    spad.access(coreId, pendingAddr, SpadOp::WriteTiming, 0,
                [this](const Scratchpad::Response &) {
                    storeBufferBusy = false;
                });
    _stats.instructions += 1;
    if (idle_tag)
        _stats.idleCycles += 1;
    else
        _stats.executeCycles += 1;
    account(tag, 1, 1, 1);
    ++opIdx;
    opEvent.scheduleCycles(1);
}

} // namespace tengig
