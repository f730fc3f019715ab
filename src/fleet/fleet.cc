#include "fleet/fleet.hh"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>

#include "sim/logging.hh"

namespace tengig {

namespace {

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fold one frame observation (at @p tick) into a stream hash. */
std::uint64_t
foldFrame(std::uint64_t h, Tick tick, const FrameView &v)
{
    std::uint32_t seq = ~0u;
    std::uint32_t flow = ~0u;
    peekFrameView(v, seq, flow);
    h = fnv1a(h, tick);
    h = fnv1a(h, v.len);
    h = fnv1a(h, (static_cast<std::uint64_t>(flow) << 32) | seq);
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

const char *
topologyName(FleetTopology t)
{
    switch (t) {
      case FleetTopology::None: return "none";
      case FleetTopology::Ring: return "ring";
      case FleetTopology::Pairs: return "pairs";
    }
    return "?";
}

} // namespace

FleetRunner::FleetRunner(const FleetConfig &c) : cfg(c)
{
    cfg.validate();

    unsigned m = static_cast<unsigned>(cfg.nodes.size());
    bool forwarding = cfg.topology != FleetTopology::None;
    if (forwarding) {
        fabric = std::make_unique<FleetSwitch>(cfg.sw, m);
        fabric->registerStats(fleetRoot.group("switch"));
    }

    // Fault-domain components exist only when configured: a default
    // fleet carries no chaos state, no protocol state, and no extra
    // stat groups, so its runs (and report JSON) are bit-identical to
    // a build without the subsystem.
    if (cfg.fabricFaults.enabled()) {
        chaos = std::make_unique<FabricFaultInjector>(cfg.fabricFaults, m);
        chaos->registerStats(fleetRoot.group("switch"));
    }
    if (cfg.reliable.enabled) {
        rto = cfg.reliable.retransmitTimeout
                  ? cfg.reliable.retransmitTimeout
                  : cfg.minRetransmitTimeout();
        relay = std::make_unique<ReliableSender>(cfg.reliable, rto);
        relay->registerStats(fleetRoot.group("reliable"));
    }

    for (unsigned i = 0; i < m; ++i) {
        auto node = std::make_unique<Node>();
        node->nic = std::make_unique<NicController>(cfg.nodes[i]);
        node->wireHash = fnvBasis;
        node->injectHash = fnvBasis;
        switch (cfg.topology) {
          case FleetTopology::Ring:
            node->dstPort = (i + 1) % m;
            break;
          case FleetTopology::Pairs:
            node->dstPort = i ^ 1u;
            break;
          case FleetTopology::None:
            node->dstPort = i;
            break;
        }
        if (relay)
            node->rrx = std::make_unique<ReliableReceiver>(
                *node->nic, cfg.reliable.rxRetryTicks);
        nodes.push_back(std::move(node));
    }

    if (relay) {
        // Receiver counters live per node; the fleet surface sums them
        // lazily so the "reliable" subtree shows both halves of the
        // protocol next to each other.
        obs::StatGroup &rg = fleetRoot.group("reliable");
        auto sumRx = [this](std::uint64_t (ReliableReceiver::*m)() const) {
            std::uint64_t n = 0;
            for (const auto &np : nodes)
                n += (np->rrx.get()->*m)();
            return static_cast<double>(n);
        };
        rg.derived("delivered",
                   [sumRx] { return sumRx(&ReliableReceiver::deliveredTotal); },
                   "cross-node frames injected in order at destinations");
        rg.derived("dup_suppressed",
                   [sumRx] { return sumRx(&ReliableReceiver::dupSuppressed); },
                   "retransmitted frames whose original survived");
        rg.derived("corrupt_discarded",
                   [sumRx] { return sumRx(&ReliableReceiver::corruptDiscarded); },
                   "frames discarded by the link-port CRC check");
        rg.derived("rx_refusals",
                   [sumRx] { return sumRx(&ReliableReceiver::rxRefusals); },
                   "MAC-refused injections held as backpressure");
        rg.derived("rx_retries",
                   [sumRx] { return sumRx(&ReliableReceiver::rxRetries); },
                   "receiver re-injection attempts after refusals");
        rg.derived("rx_buffered",
                   [sumRx] { return sumRx(&ReliableReceiver::buffered); },
                   "frames parked in receive reorder buffers");
    }

    if (cfg.healthMonitor || chaos) {
        health = std::make_unique<FleetHealthMonitor>();
        for (unsigned i = 0; i < m; ++i) {
            NicController *nic = nodes[i]->nic.get();
            health->addNode(FleetHealthMonitor::NodeProbe{
                "node " + std::to_string(i) + " (egress link " +
                    std::to_string(nodes[i]->dstPort) + ")",
                [nic] { return nic->lastFirmwareRetireTick(); },
                [nic] { return nic->pipelineBusy(); },
                [nic] { return nic->eventQueue().empty(); },
                [nic] { return nic->pipelineReport(); }});
        }
        health->registerStats(fleetRoot.group("health"));
    }

    // The tap runs on whichever worker owns the instance during a
    // window; it touches only that instance's Node state, and barrier
    // synchronization orders those accesses across windows.
    for (auto &np : nodes) {
        Node *n = np.get();
        bool capture = forwarding;
        n->nic->setWireTap([n, capture](const FrameView &v) {
            Tick t = n->nic->eventQueue().curTick();
            n->wireHash = foldFrame(n->wireHash, t, v);
            if (capture) {
                FrameData fd;
                if (v.desc)
                    fd.desc = *v.desc;
                else
                    fd.bytes.assign(v.bytes, v.bytes + v.len);
                n->outbox.push_back({t, n->captureSeq++, std::move(fd)});
            }
        });
    }
}

FleetRunner::~FleetRunner() = default;

unsigned
FleetRunner::resolveThreads() const
{
    if (cfg.threads)
        return cfg.threads;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
FleetRunner::offerFrame(unsigned src, Tick sent, FrameData &&frame,
                        Tick now, std::uint64_t rec_id)
{
    unsigned dst = nodes[src]->dstPort;
    ++offered;

    // The fault gauntlet, in traversal order.  Each roll consumes from
    // its own (link, class) stream and every decision happens here in
    // the single-threaded barrier pass, so chaos runs stay
    // bit-identical across thread counts.
    Tick enq = sent + cfg.sw.fabricLatencyTicks;
    if (chaos && chaos->linkDown(dst, enq)) {
        chaos->noteLinkKill(dst);
        if (rec_id)
            relay->owe(rec_id, FabricFaultClass::LinkDown);
        return;
    }
    if (chaos && chaos->rollDrop(dst, enq)) {
        if (rec_id)
            relay->owe(rec_id, FabricFaultClass::Drop);
        return;
    }

    auto arrival = fabric->forward(src, dst, sent, frame.frameBytes());
    if (!arrival) {
        // Dropped at the egress FIFO; counted by the switch (the
        // `switch.egress<i>.drops` ledger surface).
        if (rec_id)
            relay->owe(rec_id, FabricFaultClass::EgressFull);
        return;
    }
    fatal_if(*arrival < now, "fleet lookahead violated: arrival ",
             *arrival, " before barrier ", now,
             " (fabric latency must be >= sync window)");

    // Corruption strikes frames that made it through the switch, so
    // the injected count never double-books a dropped frame.
    bool corrupted = chaos && chaos->rollCorrupt(dst, *arrival);

    Node *dn = nodes[dst].get();
    dn->injectHash = foldFrame(dn->injectHash, *arrival, frame.view());
    NicController *nic = dn->nic.get();
    auto fd = std::make_unique<FrameData>(std::move(frame));
    if (dn->rrx) {
        ReliableReceiver *rx = dn->rrx.get();
        dn->nic->eventQueue().schedule(
            *arrival, [rx, dn, corrupted, fd = std::move(fd)]() mutable {
                ++dn->receiptsRun;
                rx->receive(std::move(*fd), corrupted);
            });
    } else {
        dn->nic->eventQueue().schedule(
            *arrival, [nic, dn, corrupted, fd = std::move(fd)]() mutable {
                ++dn->receiptsRun;
                if (corrupted) {
                    // The link port's CRC check: the damaged frame
                    // dies before the MAC, keeping the destination's
                    // own stat tree chaos-independent.
                    ++dn->corruptDiscards;
                    return;
                }
                if (nic->injectWireFrame(std::move(*fd)))
                    ++dn->injectDelivered;
                else
                    ++dn->injectDropped;
            });
    }

    if (!rec_id)
        return;
    if (corrupted) {
        relay->owe(rec_id, FabricFaultClass::Corrupt);
        return;
    }
    // Delivered: the ack crosses back over the source's egress link
    // with the fabric latency, subject to that link's flap windows and
    // the ack-drop Bernoulli stream.
    Tick ackArrival = *arrival + cfg.sw.fabricLatencyTicks;
    if (chaos && (chaos->linkDown(src, ackArrival) ||
                  chaos->rollAckDrop(src, ackArrival))) {
        chaos->noteAckLost(src);
        relay->owe(rec_id, FabricFaultClass::AckLost);
        return;
    }
    relay->ackInFlight(rec_id, ackArrival);
}

void
FleetRunner::exchange(Tick now, FleetResults &res)
{
    (void)res;
    if (fabric) {
        // Acks land before timeouts are judged: a frame whose ack
        // arrived by this barrier can never be spuriously retransmitted
        // at the same barrier.
        if (relay)
            relay->processAcks(now);

        // Deterministic merge: simulated send time, then source port,
        // then per-source capture order.  This total order depends only
        // on the simulation, never on which thread ran which instance.
        mergeScratch.clear();
        for (unsigned p = 0; p < nodes.size(); ++p)
            for (Capture &cap : nodes[p]->outbox)
                mergeScratch.emplace_back(p, &cap);
        std::sort(mergeScratch.begin(), mergeScratch.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second->sent != b.second->sent)
                          return a.second->sent < b.second->sent;
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second->seq < b.second->seq;
                  });

        for (auto &[src, cap] : mergeScratch) {
            std::uint64_t id = relay
                ? relay->track(src, nodes[src]->dstPort, cap->sent,
                               cap->frame)
                : 0;
            offerFrame(src, cap->sent, std::move(cap->frame), now, id);
        }
        for (auto &n : nodes)
            n->outbox.clear();

        // Retransmissions re-enter the fabric at the barrier tick,
        // which keeps the switch's nondecreasing-send-tick contract:
        // every capture this window was sent at or before `now`.
        if (relay) {
            for (std::uint64_t id : relay->collectTimeouts(now)) {
                const ReliableSender::Record &rec = relay->record(id);
                offerFrame(rec.src, now, FrameData(rec.frame), now, id);
            }
        }
    }

    if (chaos && cfg.fabricFaults.nodeStallRate > 0.0) {
        for (unsigned i = 0; i < nodes.size(); ++i) {
            auto episode =
                chaos->rollNodeStall(i, now, cfg.syncWindowTicks);
            if (!episode)
                continue;
            auto [start, dur] = *episode;
            NicController *nic = nodes[i]->nic.get();
            nic->eventQueue().schedule(start,
                                       [nic] { nic->freezeCores(); });
            nic->eventQueue().schedule(start + dur,
                                       [nic] { nic->thawCores(); });
        }
    }
    if (chaos)
        for (unsigned i = 0; i < nodes.size(); ++i)
            if (chaos->linkDown(i, now))
                chaos->noteDegradedWindow(i);

    if (health)
        health->sample(now);
}

FleetResults
FleetRunner::run()
{
    fatal_if(ran, "FleetRunner::run is single-shot; build a new runner");
    ran = true;

    unsigned nthreads = resolveThreads();
    std::size_t m = nodes.size();
    FleetResults res;

    for (auto &n : nodes)
        n->nic->startRun();

    Tick end = cfg.warmupTicks + cfg.measureTicks;
    auto beginAll = [&] {
        for (auto &n : nodes) {
            n->nic->checkLiveness();
            n->nic->beginMeasurement();
        }
    };
    if (cfg.warmupTicks == 0)
        beginAll();

    auto wall0 = std::chrono::steady_clock::now();

    std::atomic<std::size_t> nextIdx{0};
    std::atomic<unsigned> busy{0};
    std::atomic<unsigned> peak{0};
    Tick target = 0;
    bool done = false;

    std::vector<std::thread> pool;
    std::unique_ptr<std::barrier<>> startGate;
    std::unique_ptr<std::barrier<>> doneGate;
    if (nthreads > 1 && m > 1) {
        auto workers = static_cast<std::ptrdiff_t>(nthreads);
        startGate = std::make_unique<std::barrier<>>(workers + 1);
        doneGate = std::make_unique<std::barrier<>>(workers + 1);
        auto worker = [&] {
            while (true) {
                startGate->arrive_and_wait();
                if (done)
                    return;
                for (std::size_t i;
                     (i = nextIdx.fetch_add(1)) < nodes.size();) {
                    unsigned b = busy.fetch_add(1) + 1;
                    unsigned p = peak.load();
                    while (b > p &&
                           !peak.compare_exchange_weak(p, b)) {
                    }
                    nodes[i]->nic->eventQueue().runUntil(target);
                    busy.fetch_sub(1);
                }
                doneGate->arrive_and_wait();
            }
        };
        pool.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
    }

    auto windowTo = [&](Tick until) {
        if (pool.empty()) {
            for (auto &n : nodes)
                n->nic->eventQueue().runUntil(until);
            return;
        }
        target = until;
        nextIdx.store(0, std::memory_order_relaxed);
        startGate->arrive_and_wait(); // workers see `target`
        doneGate->arrive_and_wait();  // coordinator sees all queues
    };

    Tick t = 0;
    while (t < end) {
        Tick edge = t < cfg.warmupTicks ? cfg.warmupTicks : end;
        Tick until = std::min(t + cfg.syncWindowTicks, edge);
        windowTo(until);
        exchange(until, res);
        ++res.windows;
        t = until;
        if (t == cfg.warmupTicks && t != end)
            beginAll();
    }

    // The measured window closes at the horizon: drain windows below
    // are protocol settling time, not workload, and counting their
    // quiesced ticks would dilute measured throughput.
    std::vector<NicResults> nicRes;
    nicRes.reserve(m);
    for (auto &n : nodes) {
        n->nic->checkLiveness();
        nicRes.push_back(n->nic->endMeasurement());
    }

    // Drain phase (reliable runs): quiesce transmit posting, then keep
    // exchanging windows until every tracked frame is acked and every
    // reorder buffer is empty -- the 100%-recovery contract is checked
    // against a settled system, not a horizon that happened to cut
    // receipts, acks, or receiver retries mid-flight.  Convergence is
    // bounded by the worst backed-off deadline; overrunning it means
    // the protocol leaked a record and is fatal.
    if (relay) {
        for (auto &n : nodes)
            n->nic->quiesceTx();
        auto settled = [&] {
            if (relay->pendingCount() > 0)
                return false;
            for (auto &n : nodes)
                if (n->rrx && !n->rrx->drained())
                    return false;
            return true;
        };
        Tick cap = t + (rto << (cfg.reliable.backoffMax + 2));
        while (!settled()) {
            fatal_if(t >= cap, "reliable drain did not settle within ",
                     (cap - end) / tickPerUs, " us past the run end: ",
                     relay->pendingCount(), " frames still tracked");
            t += cfg.syncWindowTicks;
            windowTo(t);
            exchange(t, res);
            ++res.windows;
        }
    }

    if (!pool.empty()) {
        done = true;
        startGate->arrive_and_wait();
        for (auto &th : pool)
            th.join();
    }

    auto wall1 = std::chrono::steady_clock::now();
    res.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    res.maxConcurrentWorkers = pool.empty() ? 1 : peak.load();

    for (std::size_t i = 0; i < m; ++i) {
        auto &n = nodes[i];
        n->nic->checkLiveness();
        NicResults r = std::move(nicRes[i]);
        n->nic->stopRun();
        res.aggTxGbps += r.txUdpGbps;
        res.aggRxGbps += r.rxUdpGbps;
        res.aggTotalGbps += r.totalUdpGbps;
        res.errors += r.errors;
        res.eventsExecuted += n->nic->eventQueue().executedEvents();
        res.wireHash.push_back(n->wireHash);
        res.injectHash.push_back(n->injectHash);
        res.injectRejected += n->injectDropped;
        res.nic.push_back(std::move(r));
    }
    if (res.wallSeconds > 0)
        res.eventsPerSec =
            static_cast<double>(res.eventsExecuted) / res.wallSeconds;
    if (fabric) {
        res.framesForwarded = fabric->framesForwarded();
        res.framesDropped = fabric->framesDropped();
        const auto &lh = fabric->latencyHistogram();
        res.switchLatencyMeanUs = lh.mean() / tickPerUs;
        res.switchLatencyP99Us = lh.p99() / tickPerUs;
    }

    res.fabricOffered = offered;
    if (chaos) {
        chaos->finalize(t); // t includes any drain windows past `end`
        res.fabricLinkDownKills = chaos->linkDownKills();
        res.fabricDrops = chaos->dropsInjected();
        res.fabricCorrupt = chaos->corruptInjected();
        res.fabricAckLost = chaos->ackLostInjected();
        res.linkDownTicks = chaos->totalLinkDownTicks();
        res.nodeStallEpisodes = chaos->nodeStallEpisodes();
    }
    if (health)
        res.heartbeatMisses = health->heartbeatMissesTotal();

    std::uint64_t receiptsRun = 0;
    for (const auto &n : nodes) {
        receiptsRun += n->receiptsRun;
        res.corruptDiscarded += n->corruptDiscards;
        res.crossDelivered += n->injectDelivered;
    }
    if (fabric) {
        // The delivery ledger: every offered frame is either forwarded
        // or accounted to exactly one loss class.  Any residue is a
        // bookkeeping bug, and the benches exit nonzero on it.
        std::uint64_t accounted = res.framesForwarded +
                                  res.framesDropped +
                                  res.fabricLinkDownKills +
                                  res.fabricDrops;
        res.unaccountedLoss = offered > accounted ? offered - accounted
                                                  : accounted - offered;
        res.arrivalsInFlight = res.framesForwarded - receiptsRun;
    }
    if (relay) {
        res.reliableAcked = relay->ackedTotal();
        res.retransmits = relay->retransmitsTaken();
        res.backoffTicks = relay->backoffTicksTotal();
        for (unsigned c = 0; c < fabricFaultClassCount; ++c) {
            res.recoveredByClass[c] =
                relay->recovered(static_cast<FabricFaultClass>(c));
            res.recoveredTotal += res.recoveredByClass[c];
        }
        res.reliablePending = relay->pendingCount();
        res.reliablePendingStormEra =
            cfg.fabricFaults.stormEnd
                ? relay->pendingOlderThan(cfg.fabricFaults.stormEnd)
                : 0;
        res.reliableOwedOutstanding = relay->owedOutstandingTotal();
        res.crossDelivered = 0;
        for (const auto &n : nodes) {
            res.crossDelivered += n->rrx->deliveredTotal();
            res.dupSuppressed += n->rrx->dupSuppressed();
            res.rxRefusals += n->rrx->rxRefusals();
            res.rxRetries += n->rrx->rxRetries();
            res.rxBuffered += n->rrx->buffered();
            res.corruptDiscarded += n->rrx->corruptDiscarded();
        }
    }
    return res;
}

obs::json::Value
FleetRunner::reportJson(const FleetResults &res) const
{
    using obs::json::Value;
    Value doc = Value::object();
    doc.set("schema", "tengig-fleet-v1");
    doc.set("nodes", size());
    doc.set("topology", topologyName(cfg.topology));
    doc.set("threads", resolveThreads());
    doc.set("syncWindowUs",
            static_cast<double>(cfg.syncWindowTicks) / tickPerUs);
    doc.set("switchLatencyUs",
            static_cast<double>(cfg.sw.fabricLatencyTicks) / tickPerUs);

    Value agg = Value::object();
    agg.set("txUdpGbps", res.aggTxGbps);
    agg.set("rxUdpGbps", res.aggRxGbps);
    agg.set("totalUdpGbps", res.aggTotalGbps);
    agg.set("errors", res.errors);
    agg.set("framesForwarded", res.framesForwarded);
    agg.set("framesDropped", res.framesDropped);
    agg.set("injectRejected", res.injectRejected);
    agg.set("switchLatencyMeanUs", res.switchLatencyMeanUs);
    agg.set("switchLatencyP99Us", res.switchLatencyP99Us);
    agg.set("eventsExecuted", res.eventsExecuted);
    agg.set("eventsPerSec", res.eventsPerSec);
    agg.set("wallSeconds", res.wallSeconds);
    agg.set("windows", res.windows);
    agg.set("maxConcurrentWorkers", res.maxConcurrentWorkers);
    doc.set("aggregate", std::move(agg));

    // Conditional fault-domain sections: absent (not zero-filled) when
    // the subsystem is off, so a default fleet's report is byte-
    // identical to one from a build without the subsystem.
    if (chaos) {
        Value ch = Value::object();
        ch.set("offered", res.fabricOffered);
        ch.set("linkDownKills", res.fabricLinkDownKills);
        ch.set("drops", res.fabricDrops);
        ch.set("corrupt", res.fabricCorrupt);
        ch.set("ackLost", res.fabricAckLost);
        ch.set("linkDownTicks", res.linkDownTicks);
        ch.set("nodeStallEpisodes", res.nodeStallEpisodes);
        ch.set("heartbeatMisses", res.heartbeatMisses);
        ch.set("corruptDiscarded", res.corruptDiscarded);
        ch.set("unaccountedLoss", res.unaccountedLoss);
        ch.set("arrivalsInFlight", res.arrivalsInFlight);
        ch.set("crossDelivered", res.crossDelivered);
        doc.set("chaos", std::move(ch));
    }
    if (relay) {
        Value rel = Value::object();
        rel.set("acked", res.reliableAcked);
        rel.set("retransmits", res.retransmits);
        rel.set("backoffTicks", res.backoffTicks);
        Value rec = Value::object();
        for (unsigned c = 0; c < fabricFaultClassCount; ++c)
            rec.set(fabricFaultClassName(static_cast<FabricFaultClass>(c)),
                    res.recoveredByClass[c]);
        rel.set("recovered", std::move(rec));
        rel.set("recoveredTotal", res.recoveredTotal);
        rel.set("dupSuppressed", res.dupSuppressed);
        rel.set("rxRefusals", res.rxRefusals);
        rel.set("rxRetries", res.rxRetries);
        rel.set("rxBuffered", res.rxBuffered);
        rel.set("pending", res.reliablePending);
        rel.set("pendingStormEra", res.reliablePendingStormEra);
        rel.set("owedOutstanding", res.reliableOwedOutstanding);
        doc.set("reliable", std::move(rel));
    }

    Value det = Value::object();
    Value wh = Value::array();
    for (std::uint64_t h : res.wireHash)
        wh.push(hashHex(h));
    Value ih = Value::array();
    for (std::uint64_t h : res.injectHash)
        ih.push(hashHex(h));
    det.set("wireHash", std::move(wh));
    det.set("injectHash", std::move(ih));
    doc.set("determinism", std::move(det));

    doc.set("fleet", fleetRoot.toJson());

    Value nic = Value::object();
    for (unsigned p = 0; p < nodes.size(); ++p)
        nic.set(std::to_string(p), nodes[p]->nic->statTree().toJson());
    doc.set("nic", std::move(nic));
    return doc;
}

} // namespace tengig
