#include "scratchpad.hh"

#include <algorithm>

#include "obs/stat_registry.hh"

namespace tengig {

namespace {

/** Minimum scratchpad access latency in CPU cycles (request + access). */
constexpr Cycles accessLatency = 2;

/** Write-accept latency: the store buffer drains one cycle after grant. */
constexpr Cycles writeAcceptLatency = 1;

} // namespace

Scratchpad::Scratchpad(EventQueue &eq, const ClockDomain &domain,
                       unsigned requesters, std::size_t capacity,
                       unsigned num_banks, unsigned interleave)
    : Clocked(eq, domain), store(capacity), banks(num_banks),
      numRequesters(requesters), interleaveBytes(interleave)
{
    fatal_if(num_banks == 0, "scratchpad needs at least one bank");
    fatal_if(interleave < 4 || (interleave & (interleave - 1)),
             "scratchpad interleave must be a power of two >= 4");
}

unsigned
Scratchpad::bankOf(Addr addr) const
{
    return static_cast<unsigned>(
        (addr / interleaveBytes) % banks.size());
}

void
Scratchpad::access(unsigned requester, Addr addr, SpadOp op, Callback cb)
{
    panic_if(requester >= numRequesters,
             "bad scratchpad requester ", requester);
    panic_if(addr >= store.capacity(),
             "[scratchpad] access out of range: addr=", addr,
             " capacity=", store.capacity());
    unsigned b = bankOf(addr);
    Bank &bank = banks[b];
    bank.queue.push_back(Request{requester, addr, op, std::move(cb),
                                 curCycle()});
    scheduleService(b);
}

void
Scratchpad::scheduleService(unsigned b)
{
    Bank &bank = banks[b];
    if (bank.serviceScheduled || bank.queue.empty())
        return;
    bank.serviceScheduled = true;
    Tick at = std::max(clockDomain().nextEdgeAtOrAfter(curTick()),
                       clockDomain().edge(bank.nextFree));
    eventQueue().schedule(at, [this, b] { serviceBank(b); },
                          EventPriority::HardwareProgress);
}

void
Scratchpad::serviceBank(unsigned b)
{
    Bank &bank = banks[b];
    bank.serviceScheduled = false;
    if (bank.queue.empty())
        return;

    // Round-robin among requesters with pending work in this bank: scan
    // requester ids starting at rrNext and grant the first match.  A
    // lone request (the overwhelmingly common case) needs no scan --
    // every priority order grants it.
    std::size_t pick = 0;
    if (bank.queue.size() > 1) {
        bool found = false;
        for (unsigned step = 0; step < numRequesters && !found; ++step) {
            unsigned want = (bank.rrNext + step) % numRequesters;
            for (std::size_t i = 0; i < bank.queue.size(); ++i) {
                if (bank.queue[i].requester == want) {
                    pick = i;
                    found = true;
                    break;
                }
            }
        }
    }

    Request req = std::move(bank.queue[pick]);
    bank.queue.erase(bank.queue.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    bank.rrNext = (req.requester + 1) % numRequesters;

    ++bank.accesses;
    Cycles grant_cycle = curCycle();
    Cycles conflict = grant_cycle > req.arrival
        ? grant_cycle - req.arrival : 0;
    bank.conflictCycles += conflict;

    switch (req.op) {
      case SpadOp::Read:
        ++reads;
        break;
      case SpadOp::Write:
        ++writes;
        break;
      case SpadOp::Rmw:
        ++rmws;
        break;
    }

    if (tracer) {
        // RMW operations read and write; trace them as writes (they
        // dirty the line under any coherence protocol).
        tracer(req.requester, req.addr & ~static_cast<Addr>(3),
               req.op != SpadOp::Read);
    }
    Cycles done =
        req.op == SpadOp::Write ? writeAcceptLatency : accessLatency;
    if (req.cb) {
        scheduleCycles(done,
                       [cb = std::move(req.cb), conflict]() mutable {
                           cb(conflict);
                       },
                       EventPriority::HardwareProgress);
    }

    // One grant per cycle.
    bank.nextFree = grant_cycle + 1;
    if (!bank.queue.empty()) {
        bank.serviceScheduled = true;
        eventQueue().schedule(clockDomain().edge(bank.nextFree),
                              [this, b] { serviceBank(b); },
                              EventPriority::HardwareProgress);
    }
}

std::uint64_t
Scratchpad::totalAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &b : banks)
        n += b.accesses.value();
    return n;
}

std::uint64_t
Scratchpad::totalConflictCycles() const
{
    std::uint64_t n = 0;
    for (const auto &b : banks)
        n += b.conflictCycles.value();
    return n;
}

double
Scratchpad::consumedBandwidthGbps(Tick now) const
{
    if (now == 0)
        return 0.0;
    double bits = static_cast<double>(totalAccesses()) * 32.0;
    double seconds = static_cast<double>(now) / tickPerSec;
    return bits / seconds / 1e9;
}

void
Scratchpad::registerStats(obs::StatGroup &g) const
{
    g.derived("accesses",
              [this] { return static_cast<double>(totalAccesses()); },
              "crossbar transactions granted");
    g.add("reads", reads);
    g.add("writes", writes);
    g.add("rmws", rmws, "atomic set/update/test-and-set operations");
    g.derived("conflictCycles",
              [this] {
                  return static_cast<double>(totalConflictCycles());
              },
              "grant delay beyond the 2-cycle minimum");
    for (std::size_t i = 0; i < banks.size(); ++i) {
        obs::StatGroup &b = g.group("bank" + std::to_string(i));
        b.add("accesses", banks[i].accesses);
        b.add("conflictCycles", banks[i].conflictCycles);
    }
}

void
Scratchpad::resetStats()
{
    reads.reset();
    writes.reset();
    rmws.reset();
    for (auto &b : banks) {
        b.accesses.reset();
        b.conflictCycles.reset();
    }
}

} // namespace tengig
