#include "controller.hh"

#include <cmath>
#include "firmware/calibration.hh"
#include "firmware/event_register.hh"

namespace tengig {

namespace {

/** A frame generator that never generates: vnic runs where no VF has
 *  receive traffic still own a source for the shared stat plumbing. */
class IdleGenerator : public FrameGenerator
{
  public:
    void start(Tick) override {}
    void stop() override {}
    void setFrameLimit(std::uint64_t) override {}
    std::uint64_t framesOffered() const override { return 0; }
    std::uint64_t framesDropped() const override { return 0; }
};

} // namespace

NicController::NicController(const NicConfig &cfg_) : cfg(cfg_)
{
    build();
}

NicController::~NicController() = default;

void
NicController::build()
{
    cpuClk = std::make_unique<ClockDomain>("cpu",
                                           periodFromMhz(cfg.cpuMhz));
    busClk = std::make_unique<ClockDomain>("membus",
                                           periodFromMhz(cfg.memBusMhz));

    unsigned P = cfg.cores;
    const unsigned spadRequesters = P + 4;

    hostMem = std::make_unique<HostMemory>();
    spad = std::make_unique<Scratchpad>(eq, *cpuClk, spadRequesters,
                                        cfg.scratchpadBytes,
                                        cfg.scratchpadBanks);
    GddrSdram::Config rc;
    rc.capacity = cfg.sdramBytes;
    rc.numRequesters = 5;
    ram = std::make_unique<GddrSdram>(eq, *busClk, rc);
    imem = std::make_unique<InstructionMemory>(*cpuClk);

    // SDRAM frame-buffer layout: transmit slots then receive slots.
    txBufSdram = 0;
    rxBufSdram = static_cast<Addr>(cfg.firmware.txSlots) *
        cfg.firmware.slotBytes;
    fatal_if(rxBufSdram + static_cast<Addr>(cfg.firmware.rxSlots) *
             cfg.firmware.slotBytes > cfg.sdramBytes,
             "sdram too small for the configured frame slots");

    // Fault injection and the virtualization layer come first: the
    // driver's tx source and the DMA assists capture them.
    // vnic runs derive the injector from the per-VF plans (one tenant
    // per VF); legacy runs keep the single-plan injector.
    Cycles wdCycles = cfg.faults.watchdogCycles;
    if (vnicOn()) {
        fatal_if(cfg.txTraffic.enabled() || cfg.rxTraffic.enabled(),
                 "vnic runs own the workload: per-VF profiles replace "
                 "cfg.txTraffic/cfg.rxTraffic");
        fatal_if(cfg.faults.enabled(),
                 "vnic runs use per-VF fault plans, not cfg.faults");
        fatal_if(cfg.firmware.tsoSegments != 1,
                 "vnic runs are incompatible with TSO");
        std::vector<FaultPlan> plans;
        bool any_faults = false;
        for (const VfConfig &vf : cfg.vfs) {
            plans.push_back(vf.faults);
            any_faults = any_faults || vf.faults.enabled();
            if (vf.faults.watchdogCycles > wdCycles)
                wdCycles = vf.faults.watchdogCycles;
        }
        if (any_faults)
            injector = std::make_unique<FaultInjector>(plans, eq);
        VnicMux::Config vc;
        vc.vfs = cfg.vfs;
        vc.sendRingFrames = cfg.sendRingFrames;
        vc.rxSlots = cfg.firmware.rxSlots;
        vnic = std::make_unique<VnicMux>(eq, vc, injector.get());
    } else if (cfg.faults.enabled()) {
        injector = std::make_unique<FaultInjector>(cfg.faults, eq);
    }

    DeviceDriver::Config dc;
    dc.sendRingFrames = cfg.sendRingFrames;
    dc.recvPoolBuffers = cfg.recvPoolBuffers;
    dc.txPayloadBytes = cfg.txPayloadBytes;
    dc.tsoSegments = cfg.firmware.tsoSegments;
    if (vnicOn()) {
        // The posting arbiter is the frame source: weighted DRR +
        // per-VF admission buckets decide what enters the shared ring.
        dc.txFrameNext = [this](std::uint64_t seq) {
            return vnic->nextTxFrame(seq);
        };
    } else if (cfg.txTraffic.enabled()) {
        txSched = std::make_unique<TxSchedule>(cfg.txTraffic);
        if (cfg.txPaceRate > 0.0) {
            fatal_if(cfg.txPaceRate > 1.0, "txPaceRate must be a "
                     "fraction of line rate in (0, 1], got ",
                     cfg.txPaceRate);
            // Metered posting: a frame becomes eligible only when its
            // wire time at the paced rate has elapsed since the
            // previous one.  No credit accumulates while posting
            // is stalled (e.g. a frozen firmware), so recovery after a
            // stall resumes at the paced rate instead of bursting.
            dc.txFrameNext = [this](std::uint64_t seq)
                -> std::optional<std::pair<std::uint32_t, unsigned>> {
                if (txQuiesced)
                    return std::nullopt;
                Tick now = eq.curTick();
                if (now < txPaceNext) {
                    if (!txPaceArmed) {
                        txPaceArmed = true;
                        eq.schedule(txPaceNext, [this] {
                            txPaceArmed = false;
                            driver->resumeSend();
                        });
                    }
                    return std::nullopt;
                }
                auto spec = txSched->frameSpec(seq);
                Tick wire =
                    wireTimeForFrame(frameBytesForPayload(spec.second));
                txPaceNext = (txPaceNext > now ? txPaceNext : now) +
                    static_cast<Tick>(
                        std::llround(wire / cfg.txPaceRate));
                return spec;
            };
        } else {
            // Unpaced: the schedule never declines a frame.
            dc.txFrameNext = [this](std::uint64_t seq)
                -> std::optional<std::pair<std::uint32_t, unsigned>> {
                return txSched->frameSpec(seq);
            };
        }
    }
    fatal_if(cfg.txPaceRate > 0.0 &&
             (vnicOn() || !cfg.txTraffic.enabled()),
             "txPaceRate requires a txTraffic profile (vnic runs pace "
             "through per-VF admission buckets instead)");
    driver = std::make_unique<DeviceDriver>(*hostMem, dc);
    if (vnicOn()) {
        // Throttled posting resumes when a bucket refills or a lost
        // tenant doorbell is finally redelivered.
        vnic->setOnTxEligible([this] { driver->resumeSend(); });
    }
    driver->onRxDeliver([this](const FrameView &v) { rxDelivered(v); });

    // Crossbar requester ids: cores 0..P-1, then the four assists.
    AssistIds ids{P + 0, P + 1, P + 2, P + 3};
    // Internal-bus requester ids.
    constexpr unsigned sdDmaRd = 0, sdDmaWr = 1, sdMacTx = 2,
        sdMacRx = 3;

    dmaRead = std::make_unique<DmaAssist>(eq, *cpuClk, *spad, *ram,
                                          *hostMem, ids.dmaRead, sdDmaRd,
                                          cfg.dmaFifoDepth);
    dmaWrite = std::make_unique<DmaAssist>(eq, *cpuClk, *spad, *ram,
                                           *hostMem, ids.dmaWrite,
                                           sdDmaWr, cfg.dmaFifoDepth);
    if (injector) {
        dmaRead->attachFaults(injector.get());
        dmaWrite->attachFaults(injector.get());
    }
    macTx = std::make_unique<MacTx>(
        eq, *cpuClk, *ram,
        MacTx::Deliver([this](const FrameView &v) { txDelivered(v); }),
        sdMacTx, cfg.macTxFifoDepth);

    fwState = std::make_unique<FwState>(*spad, cfg.firmware);
    tasks = std::make_unique<FwTasks>(*fwState, *dmaRead, *dmaWrite,
                                      *macTx, *driver, *hostMem,
                                      txBufSdram, rxBufSdram, ids);
    if (injector) {
        // Poison skips leave deliberate holes in the wire stream; the
        // skipped firmware sequence maps back to (flow, flow seq) via
        // the driver's posted-frame metadata so the wire-side
        // validator can expect exactly that hole.
        tasks->attachFaults(injector.get(), [this](std::uint64_t seq) {
            auto [flow, fseq] = driver->txFrameMeta(seq);
            txFlow.noteInjectedDrop(flow, fseq);
        });
    }
    if (vnicOn()) {
        // Firmware-side vnic hooks: sequence->VF attribution for fault
        // and DMA tagging, plus the MAC-commit rate gate.
        tasks->attachVnic(
            [this](std::uint64_t s) { return vnic->txVfOf(s); },
            [this](std::uint64_t s) { return vnic->rxVfOf(s); },
            [this](std::uint64_t s, unsigned len) {
                return vnic->commitPeek(s, len);
            },
            [this](std::uint64_t s, unsigned len) {
                return vnic->commitAdmit(s, len);
            });
    }

    macRx = std::make_unique<MacRx>(
        eq, *cpuClk, *ram, sdMacRx,
        [this](unsigned len) { return tasks->allocRxSlot(len); },
        [this](const MacRx::StoredFrame &sf) { tasks->rxFrameStored(sf); });

    if (vnicOn()) {
        // One serialized wire carries every tenant's arrivals; the
        // merged profile reproduces each flow's solo rate exactly
        // (VnicMux::mergedRxProfile).  With no rx traffic configured
        // anywhere, an idle generator keeps the plumbing uniform.
        TrafficProfile merged = VnicMux::mergedRxProfile(cfg.vfs);
        if (merged.enabled()) {
            auto engine = std::make_unique<TrafficEngine>(
                eq, merged, [this](FrameData &&fd) {
                    return rxArrived(std::move(fd));
                });
            rxEngine = engine.get();
            source = std::move(engine);
        } else {
            source = std::make_unique<IdleGenerator>();
        }
    } else if (cfg.rxTraffic.enabled()) {
        auto engine = std::make_unique<TrafficEngine>(
            eq, cfg.rxTraffic, [this](FrameData &&fd) {
                return rxArrived(std::move(fd));
            });
        rxEngine = engine.get();
        source = std::move(engine);
    } else if (cfg.externalWire) {
        // A fleet node with no local receive workload: every arrival
        // comes from peers through injectWireFrame().
        source = std::make_unique<IdleGenerator>();
    } else {
        source = std::make_unique<FrameSource>(
            eq, cfg.rxPayloadBytes, cfg.rxOfferedRate,
            [this](FrameData &&fd) {
                return rxArrived(std::move(fd));
            });
    }

    // Doorbells go through the lost-notification recovery channels;
    // with injection disabled ringDoorbell() is a direct passthrough.
    sendDb.retry.init(eq, [this] { doorbellRetry(sendDb, true); });
    recvDb.retry.init(eq, [this] { doorbellRetry(recvDb, false); });
    driver->onSendDoorbell([this](std::uint64_t bds) {
        ringDoorbell(sendDb, bds, true);
    });
    driver->onRecvDoorbell([this](std::uint64_t bds) {
        ringDoorbell(recvDb, bds, false);
    });

    fatal_if(cfg.taskLevelFirmware && cfg.firmware.idealMode,
             "task-level firmware has no ideal mode");
    if (cfg.taskLevelFirmware)
        dispatcher = std::make_unique<EventRegisterDispatcher>(*tasks, P);
    else
        dispatcher = std::make_unique<FrameLevelDispatcher>(*tasks);

    CodeLayout layout = CodeLayout::uniform(cal::codeRegionBytes);
    for (unsigned i = 0; i < P; ++i) {
        icaches.push_back(std::make_unique<ICache>(
            *imem, cfg.icacheBytes, cfg.icacheAssoc,
            cfg.icacheLineBytes));
        cores.push_back(std::make_unique<Core>(eq, *cpuClk, i,
                                               *dispatcher, *spad,
                                               *icaches.back(), layout,
                                               profile));
    }

    if (wdCycles != 0) {
        fwWatchdog = std::make_unique<FirmwareWatchdog>(
            eq, wdCycles * cpuClk->period());
        for (auto &c : cores) {
            Core *core = c.get();
            fwWatchdog->addCore([core] { return core->lastRetireTick(); });
        }
        // Idle cores are not stalled: only a busy pipeline whose cores
        // stop retiring invocations trips the watchdog.
        fwWatchdog->setBusy([this] { return !tasks->quiescent(); });
        fwWatchdog->setDump([this] { return fwState->pipelineReport(); });
    }

    occEvent.init(eq, [this] { occupancySample(); },
                  EventPriority::Stats);

    registerAllStats();
}

void
NicController::ringDoorbell(DoorbellChannel &ch, std::uint64_t value,
                            bool send)
{
    // Doorbell values are monotonic totals, so the latest subsumes any
    // earlier (possibly lost) ring and redelivery is idempotent.
    ch.latest = std::max(ch.latest, value);
    // vnic runs model doorbell loss on the per-tenant *virtual*
    // doorbells inside the mux; the shared physical mailbox write
    // stays reliable so one tenant's storm cannot eat another's ring.
    if (injector && !vnic && injector->rollDoorbellDrop()) {
        // The mailbox write vanished.  The host driver's timeout
        // notices and retries; an already-armed retry covers this ring
        // too (it delivers `latest`).
        if (!ch.pending) {
            ch.pending = true;
            ch.backoff = 0;
            ch.retry.scheduleIn(cfg.faults.doorbellRetryTimeout);
        }
        return;
    }
    // Delivered: any pending retry is now stale.
    if (ch.pending) {
        ch.pending = false;
        ch.backoff = 0;
        ch.retry.cancel();
    }
    if (send)
        tasks->sendDoorbell(ch.latest);
    else
        tasks->recvDoorbell(ch.latest);
}

void
NicController::doorbellRetry(DoorbellChannel &ch, bool send)
{
    injector->noteDoorbellRetry();
    if (injector->rollDoorbellDrop()) {
        // Retry lost too: back off exponentially (bounded), and
        // account the extra delay beyond the base timeout so the
        // fault stat tree exposes the recovery cost (doorbell.retries
        // counts the re-rings, doorbell.backoff_ticks this slack).
        if (ch.backoff < cfg.faults.doorbellBackoffMax)
            ++ch.backoff;
        Tick delay = cfg.faults.doorbellRetryTimeout << ch.backoff;
        injector->noteDoorbellBackoff(
            delay - cfg.faults.doorbellRetryTimeout);
        ch.retry.scheduleIn(delay);
        return;
    }
    ch.pending = false;
    ch.backoff = 0;
    if (send)
        tasks->sendDoorbell(ch.latest);
    else
        tasks->recvDoorbell(ch.latest);
}

void
NicController::checkLiveness()
{
    liveness.check(eq.empty(), !tasks->quiescent(),
                   [this] { return fwState->pipelineReport(); });
}

void
NicController::txDelivered(const FrameView &v)
{
    // Wire-side validation first, then the external tap: the fleet
    // switch sees exactly the frames the validator accepted
    // responsibility for.
    txFlow.deliver(v);
    if (vnic)
        vnic->noteTxDelivered(v);
    if (wireTap)
        wireTap(v);
}

void
NicController::rxDelivered(const FrameView &v)
{
    // Latency tap first: close out the arrival timestamp taken in
    // rxArrived().  It only observes; validation follows.
    std::uint32_t seq = 0, flow = 0;
    if (peekFrameView(v, seq, flow)) {
        std::uint64_t key = (static_cast<std::uint64_t>(flow) << 32) |
            seq;
        auto it = rxInFlight.find(key);
        if (it != rxInFlight.end()) {
            rxLatencyHist.sample(eq.curTick() - it->second);
            rxInFlight.erase(it);
        }
    }
    rxFlow.deliver(v);
    if (vnic)
        vnic->noteRxDelivered(v);
}

bool
NicController::injectWireFrame(FrameData &&fd)
{
    return rxArrived(std::move(fd));
}

bool
NicController::rxArrived(FrameData &&fd)
{
    if (vnic) {
        // Multi-tenant ingress: attribute the arrival by its flow id,
        // police it against the owning VF's rate contract (a policed
        // frame never reaches the MAC -- a source drop), then let that
        // tenant's private wire-fault streams damage what remains.
        std::uint32_t vseq = 0, vflow = 0;
        peekFrameView(fd.view(), vseq, vflow);
        unsigned vf = vnic->rxVfOfFlow(vflow);
        unsigned payload =
            fd.size() > txHeaderBytes ? fd.size() - txHeaderBytes : 0;
        if (!vnic->rxAdmit(vf, payload))
            return false;
        if (injector)
            injector->applyWireFault(fd, vf);
        Tick vnow = eq.curTick();
        bool ok = macRx->frameArrived(std::move(fd));
        if (ok) {
            // Accept order is store order is firmware claim order (the
            // MAC refuses frames synchronously), so this ring is what
            // rxVfOf() reads for per-sequence attribution.
            vnic->noteRxAccepted(vf);
            rxInFlight[(static_cast<std::uint64_t>(vflow) << 32) |
                       vseq] = vnow;
        }
        return ok;
    }

    // Wire damage happens before the NIC sees anything: a corrupted
    // frame is what arrives, and the MAC's validation decides its fate.
    if (injector)
        injector->applyWireFault(fd);
    // Timestamp the wire arrival before handing the frame to the MAC;
    // the delivery tap in rxCompletion() closes the pair.  Only frames
    // the MAC accepts are tracked (drops never deliver).
    std::uint32_t seq = 0, flow = 0;
    bool tagged = peekFrameView(fd.view(), seq, flow);
    Tick now = eq.curTick();
    bool accepted = macRx->frameArrived(std::move(fd));
    if (accepted && tagged) {
        rxInFlight[(static_cast<std::uint64_t>(flow) << 32) | seq] =
            now;
    }
    return accepted;
}

void
NicController::registerAllStats()
{
    for (std::size_t i = 0; i < cores.size(); ++i) {
        obs::StatGroup &g =
            statRoot.group("core" + std::to_string(i));
        cores[i]->registerStats(g);
        g.group("icache").derived(
            "missRatio",
            [ic = icaches[i].get()] { return ic->missRatio(); });
    }

    obs::StatGroup &fw = statRoot.group("fw");
    for (std::size_t t = 0; t < numFuncTags; ++t) {
        std::string name = funcTagName(static_cast<FuncTag>(t));
        for (auto &ch : name)
            if (ch == ' ')
                ch = '_';
        obs::StatGroup &b = fw.group(name);
        const auto *bucket = &profile.buckets[t];
        b.derived("instructions", [bucket] {
            return static_cast<double>(bucket->instructions);
        });
        b.derived("memAccesses", [bucket] {
            return static_cast<double>(bucket->memAccesses);
        });
        b.derived("cycles", [bucket] {
            return static_cast<double>(bucket->cycles);
        });
    }
    for (unsigned l = 0; l < numFwLocks; ++l) {
        obs::StatGroup &lk = fw.group("lock" + std::to_string(l));
        lk.derived("acquires", [this, l] {
            return static_cast<double>(fwState->lockAcquires[l]);
        });
        lk.derived("spins", [this, l] {
            return static_cast<double>(fwState->lockSpins[l]);
        });
    }

    spad->registerStats(statRoot.group("spad"));
    ram->registerStats(statRoot.group("sdram"));
    statRoot.group("hostMem").derived(
        "materializations",
        [this] {
            return static_cast<double>(
                hostMem->store().materializations());
        },
        "pattern spans expanded to bytes (0 = fully virtual)");
    dmaRead->registerStats(statRoot.group("dmaRead"));
    dmaWrite->registerStats(statRoot.group("dmaWrite"));
    macTx->registerStats(statRoot.group("macTx"));
    macRx->registerStats(statRoot.group("macRx"));

    obs::StatGroup &im = statRoot.group("imem");
    im.derived("fills", [this] {
        return static_cast<double>(imem->fillCount());
    });
    im.derived("bytes", [this] {
        return static_cast<double>(imem->bytesTransferred());
    });

    obs::StatGroup &link = statRoot.group("link");
    link.derived("txFrames", [this] {
        return static_cast<double>(txFlow.framesReceived());
    });
    link.derived("rxFramesDelivered", [this] {
        return static_cast<double>(driver->rxFramesDelivered());
    });
    link.derived("rxDrops", [this] {
        return static_cast<double>(macRx->framesDropped() +
                                   source->framesDropped());
    });

    // Receive gaps are legitimate overrun drops, so they count as
    // gaps but never as order errors.
    obs::StatGroup &check = statRoot.group("check");
    check.derived("orderErrors", [this] {
        return static_cast<double>(txFlow.gapErrors() +
                                   txFlow.duplicateErrors() +
                                   rxFlow.duplicateErrors());
    });
    check.derived("integrityErrors", [this] {
        return static_cast<double>(txFlow.integrityErrors() +
                                   rxFlow.integrityErrors());
    });
    check.derived("orderGaps", [this] {
        return static_cast<double>(txFlow.gapErrors() +
                                   rxFlow.gapErrors());
    });
    check.derived("orderDuplicates", [this] {
        return static_cast<double>(txFlow.duplicateErrors() +
                                   rxFlow.duplicateErrors());
    });

    bool tx_flows = txFlowsOn();
    bool rx_flows = rxFlowsOn();
    if (tx_flows || rx_flows) {
        obs::StatGroup &traffic = statRoot.group("traffic");
        if (tx_flows) {
            traffic.derived("txFlowsSeen", [this] {
                return static_cast<double>(txFlow.flowsSeen());
            });
        }
        if (rx_flows) {
            traffic.derived("rxFlowsSeen", [this] {
                return static_cast<double>(rxFlow.flowsSeen());
            });
            if (rxEngine) {
                // Guarded closures, not live counter pointers: the
                // engine dies if useRxTrace() swaps in a replayer.
                traffic.derived("rxFlowCount", [this] {
                    return rxEngine
                        ? static_cast<double>(rxEngine->flowCount())
                        : 0.0;
                });
                traffic.derived("rxMeanOfferedPayload", [this] {
                    return rxEngine ? rxEngine->sizeHistogram().mean()
                                    : 0.0;
                });
            }
            traffic.derived("rxOffered", [this] {
                return static_cast<double>(source->framesOffered());
            });
            traffic.derived("rxDropped", [this] {
                return static_cast<double>(source->framesDropped());
            });
        }
    }

    if (vnic)
        vnic->registerStats(statRoot.group("vf"));

    if (injector) {
        // Conditional like the "traffic" group: fault-free runs keep
        // the stat tree (and the determinism guard) untouched.
        obs::StatGroup &f = statRoot.group("fault");
        injector->registerStats(f);
        macTx->registerFaultStats(f.group("macTx"));
        macRx->registerFaultStats(f.group("macRx"));
        if (fwWatchdog)
            fwWatchdog->registerStats(f.group("watchdog"));
        liveness.registerStats(f.group("liveness"));
        f.derived("rxFaultDrops", [this] {
            return static_cast<double>(driver->rxFaultDropCount());
        }, "zero-length completions the driver recycled");
        f.derived("txInjectedDropsSeen", [this] {
            return static_cast<double>(txFlow.injectedDrops());
        }, "wire-side sequence holes matched to poison skips");
        f.derived("dmaFifoFullRejects", [this] {
            return static_cast<double>(dmaRead->fifoFullRejects() +
                                       dmaWrite->fifoFullRejects());
        }, "DMA pushes bounced off a full FIFO (both assists)");
    }

    statRoot.group("latency").add(
        "rx", rxLatencyHist,
        "receive latency, wire arrival -> host delivery (ticks)");
}

void
NicController::attachTrace(obs::TraceLog &t)
{
    eq.attachTraceLog(&t);
    for (std::size_t i = 0; i < cores.size(); ++i)
        cores[i]->setTraceLane(t.lane("core" + std::to_string(i)));
    dmaRead->setTraceLane(t.lane("dma-read"));
    dmaWrite->setTraceLane(t.lane("dma-write"));
    macTx->setTraceLane(t.lane("mac-tx"));
    macRx->setTraceLane(t.lane("mac-rx"));
    ram->setTraceLane(t.lane("sdram"));
    occLane = t.lane("occupancy");
    occSpadPrev = spad->totalAccesses();
    occSdramBusyPrev = ram->busyTickCount();
    scheduleOccupancySample();
}

void
NicController::scheduleOccupancySample()
{
    occEvent.scheduleIn(tickPerUs);
}

void
NicController::occupancySample()
{
    obs::TraceLog *t = eq.traceLog();
    if (!t)
        return; // detached: stop sampling
    if (t->enabled()) {
        Tick now = eq.curTick();
        std::uint64_t acc = spad->totalAccesses();
        // A stats reset between samples makes the counter regress;
        // emit a zero-delta sample and resynchronize.
        double d_acc = acc >= occSpadPrev
            ? static_cast<double>(acc - occSpadPrev) : 0.0;
        occSpadPrev = acc;
        t->counterSample(occLane, "spad grants/us", now, d_acc);

        std::uint64_t busy = ram->busyTickCount();
        double d_busy = busy >= occSdramBusyPrev
            ? static_cast<double>(busy - occSdramBusyPrev) : 0.0;
        occSdramBusyPrev = busy;
        t->counterSample(occLane, "sdram bus busy %", now,
                         100.0 * d_busy /
                             static_cast<double>(tickPerUs));
    }
    scheduleOccupancySample();
}

void
NicController::startCores()
{
    for (auto &c : cores)
        c->start();
    if (fwWatchdog)
        fwWatchdog->arm();
}

void
NicController::stopCores()
{
    for (auto &c : cores)
        c->stop();
    if (fwWatchdog)
        fwWatchdog->disarm();
}

void
NicController::freezeCores()
{
    for (auto &c : cores)
        c->stop();
}

void
NicController::thawCores()
{
    for (auto &c : cores)
        c->start();
}

void
NicController::quiesceTx()
{
    fatal_if(cfg.txPaceRate <= 0.0,
             "quiesceTx needs paced posting (cfg.txPaceRate): a "
             "backlogged send ring cannot be stopped cleanly");
    txQuiesced = true;
}

Tick
NicController::lastFirmwareRetireTick() const
{
    Tick t = 0;
    for (const auto &c : cores)
        t = std::max(t, c->lastRetireTick());
    return t;
}

bool
NicController::pipelineBusy() const
{
    return !tasks->quiescent();
}

std::string
NicController::pipelineReport() const
{
    return fwState->pipelineReport();
}

void
NicController::resetAllStats()
{
    for (auto &c : cores)
        c->resetStats();
    profile.reset();
    // Latency starts fresh with the window; in-flight arrival stamps
    // are kept so frames crossing the boundary still pair up.
    rxLatencyHist.reset();
}

NicResults
NicController::run(Tick warmup, Tick measure)
{
    return runWindow(warmup, nullptr, measure, nullptr);
}

void
NicController::useRxTrace(std::istream &in)
{
    // The replayer feeds the same MAC entry point the generator would;
    // the per-flow receive validator and latency tap stay in place.
    rxEngine = nullptr;
    source = std::make_unique<TraceReplayer>(
        eq, in, [this](FrameData &&fd) {
            return rxArrived(std::move(fd));
        });
}

void
NicController::startRun()
{
    driver->primeReceivePool();
    driver->startBackloggedSend();
    source->start();
    startCores();
}

void
NicController::beginMeasurement()
{
    // Reset core/profile stats, snapshot the delivery counters and the
    // memory-system counters.
    resetAllStats();
    snap.startTick = eq.curTick();
    snap.txFrames = txFlow.framesReceived();
    snap.txPayload = txFlow.payloadBytesReceived();
    snap.rxFrames = driver->rxFramesDelivered();
    snap.rxPayload = rxFlow.payloadBytesReceived();
    snap.spadAccesses = spad->totalAccesses();
    snap.ramBytes = ram->transferredBytes();
    snap.imemBytes = imem->bytesTransferred();
}

NicResults
NicController::endMeasurement()
{
    NicResults r;
    r.measuredTicks = eq.curTick() - snap.startTick;
    double secs = static_cast<double>(r.measuredTicks) / tickPerSec;

    r.txFrames = txFlow.framesReceived() - snap.txFrames;
    std::uint64_t tx_payload =
        txFlow.payloadBytesReceived() - snap.txPayload;
    r.rxFrames = driver->rxFramesDelivered() - snap.rxFrames;
    std::uint64_t rx_payload =
        rxFlow.payloadBytesReceived() - snap.rxPayload;

    if (secs > 0) {
        r.txUdpGbps = tx_payload * 8.0 / secs / 1e9;
        r.rxUdpGbps = rx_payload * 8.0 / secs / 1e9;
        r.txFps = r.txFrames / secs;
        r.rxFps = r.rxFrames / secs;
        r.spadGbps = (spad->totalAccesses() - snap.spadAccesses) *
            32.0 / secs / 1e9;
        r.sdramGbps = (ram->transferredBytes() - snap.ramBytes) * 8.0 /
            secs / 1e9;
        r.imemGbps = (imem->bytesTransferred() - snap.imemBytes) * 8.0 /
            secs / 1e9;
        r.imemUtilization = r.imemGbps / imem->peakBandwidthGbps();
    }
    r.totalUdpGbps = r.txUdpGbps + r.rxUdpGbps;
    r.rxDropped = source->framesDropped() + macRx->framesDropped();

    r.integrityErrors = txFlow.integrityErrors() + rxFlow.integrityErrors();
    r.orderGaps = txFlow.gapErrors() + rxFlow.gapErrors();
    r.orderDuplicates = txFlow.duplicateErrors() + rxFlow.duplicateErrors();
    // A single-stream run is flow 0 of the same contracts, but reports
    // no workload flows.
    r.flowsValidated = (txFlowsOn() ? txFlow.flowsSeen() : 0) +
        (rxFlowsOn() ? rxFlow.flowsSeen() : 0);
    // The transmit path must never lose a frame, so its gaps are
    // errors (lossless sink); receive gaps only reflect legitimate
    // overrun drops (lossy sink).
    r.errors = txFlow.errors() + rxFlow.errors();

    for (auto &c : cores) {
        const CoreStats &s = c->stats();
        r.coreIpc.push_back(s.ipc());
        r.coreTotals.instructions += s.instructions;
        r.coreTotals.executeCycles += s.executeCycles;
        r.coreTotals.imissCycles += s.imissCycles;
        r.coreTotals.loadStallCycles += s.loadStallCycles;
        r.coreTotals.conflictCycles += s.conflictCycles;
        r.coreTotals.pipelineCycles += s.pipelineCycles;
        r.coreTotals.idleCycles += s.idleCycles;
        r.coreTotals.invocations += s.invocations;
        r.coreTotals.idlePolls += s.idlePolls;
    }
    std::uint64_t total = r.coreTotals.totalCycles();
    r.aggregateIpc = total
        ? static_cast<double>(r.coreTotals.instructions) / total *
          cores.size()
        : 0.0;
    r.profile = profile;

    r.rxLatency.count = rxLatencyHist.count();
    if (r.rxLatency.count) {
        double us = static_cast<double>(tickPerUs);
        r.rxLatency.meanUs = rxLatencyHist.mean() / us;
        r.rxLatency.p50Us = rxLatencyHist.p50() / us;
        r.rxLatency.p95Us = rxLatencyHist.p95() / us;
        r.rxLatency.p99Us = rxLatencyHist.p99() / us;
        r.rxLatency.maxUs =
            static_cast<double>(rxLatencyHist.maxSample()) / us;
    }
    return r;
}

void
NicController::stopRun()
{
    source->stop();
    stopCores();
}

NicResults
NicController::runWindow(Tick warmup, std::function<void()> on_start,
                         Tick measure, std::function<void()> on_end)
{
    startRun();

    eq.runUntil(warmup);
    checkLiveness();
    if (on_start)
        on_start();

    beginMeasurement();

    eq.runUntil(warmup + measure);
    checkLiveness();
    if (on_end)
        on_end();

    NicResults r = endMeasurement();
    stopRun();
    return r;
}

NicResults
NicController::runTxOnly(unsigned frames, Tick limit)
{
    beginMeasurement();
    driver->postSendFrames(frames);
    startCores();
    return runFinite(limit, [this, frames] {
        return driver->txFramesConsumed() >= frames;
    });
}

NicResults
NicController::runRxOnly(unsigned frames, Tick limit)
{
    beginMeasurement();
    driver->primeReceivePool();
    source->setFrameLimit(frames);
    source->start();
    startCores();
    return runFinite(limit, [this, frames] {
        return driver->rxFramesDelivered() >= frames;
    });
}

NicResults
NicController::runFinite(Tick limit, const std::function<bool()> &done)
{
    Tick step = 100 * tickPerUs;
    while (eq.curTick() < limit && !done()) {
        eq.runUntil(eq.curTick() + step);
        checkLiveness();
    }
    NicResults r = endMeasurement();
    stopRun();
    return r;
}

} // namespace tengig
