#include "driver.hh"

#include "sim/logging.hh"

namespace tengig {

DeviceDriver::DeviceDriver(HostMemory &host_, const Config &cfg)
    : host(host_), config(cfg)
{
    fatal_if(cfg.txPayloadBytes < 18 ||
             cfg.txPayloadBytes > udpMaxPayloadBytes,
             "tx payload must be in [18, 1472], got ", cfg.txPayloadBytes);
    fatal_if(cfg.tsoSegments == 0 || cfg.tsoSegments > 255,
             "tsoSegments must be in [1, 255]");
    fatal_if(cfg.txFrameNext && cfg.tsoSegments != 1,
             "mixed-size tx schedules are incompatible with TSO");
    fatal_if(cfg.sendRingFrames % cfg.tsoSegments != 0,
             "send ring must hold whole TSO groups");

    // Two BDs per send group (a group is one frame, or tsoSegments
    // frames sliced from one large buffer).
    unsigned groups = cfg.sendRingFrames / cfg.tsoSegments;
    sendRingBds = groups * 2;
    sendRing = host.alloc(static_cast<std::size_t>(sendRingBds) *
                          BufferDesc::bytes, 64);
    // One reusable header-template + payload buffer per ring group.
    std::size_t tx_buf_bytes = txHeaderBytes +
        static_cast<std::size_t>(udpMaxPayloadBytes) * cfg.tsoSegments;
    txBufBase = host.alloc(static_cast<std::size_t>(groups) *
                           tx_buf_bytes, 64);

    recvRingBds = cfg.recvPoolBuffers;
    recvRing = host.alloc(static_cast<std::size_t>(recvRingBds) *
                          BufferDesc::bytes, 64);
    recvReturnRing = host.alloc(static_cast<std::size_t>(recvRingBds) *
                                BufferDesc::bytes, 64);
    txConsumedAddr = host.alloc(8, 8);
    rxBufBase = host.alloc(static_cast<std::size_t>(cfg.recvPoolBuffers) *
                           ethMaxFrameBytes, 64);
    txPostedMeta.assign(cfg.sendRingFrames, {0, 0});
}

bool
DeviceDriver::postOneSendFrame()
{
    // Multi-flow sources may decline (paced / rate-limited / idle VF);
    // asked before any state changes so a refusal leaves the ring
    // untouched.
    std::optional<std::pair<std::uint32_t, unsigned>> next;
    if (config.txFrameNext) {
        next = config.txFrameNext(txPosted);
        if (!next)
            return false;
    }

    // Posts one send *group*: tsoSegments frames behind a single
    // header-template/payload descriptor pair.
    unsigned segs = config.tsoSegments;
    std::uint64_t seq = txPosted;
    std::uint64_t group = seq / segs;
    unsigned groups = config.sendRingFrames / segs;
    unsigned slot = static_cast<unsigned>(group % groups);
    std::size_t buf_bytes = txHeaderBytes +
        static_cast<std::size_t>(udpMaxPayloadBytes) * segs;
    Addr buf = txBufBase + static_cast<Addr>(slot) * buf_bytes;

    // Header template + per-segment payloads, posted as pattern spans
    // rather than filled bytes: the contents are a pure function of
    // (seq, flow, length), so the buffer carries 16-byte descriptors
    // and the bytes never exist unless something downstream reads the
    // frame non-uniformly.  The header span (filler seeded by the
    // global posting sequence, matching the old 0x40 + (i*7 + seq)
    // fill) merges with segment 0's payload span into one whole-frame
    // span; later TSO segments stay payload-only spans the NIC's
    // header replication completes.  A multi-flow schedule picks this
    // frame's flow and size and stamps the flow's own sequence space;
    // otherwise every frame is flow 0 at the configured fixed size.
    auto hdr_seed = static_cast<std::uint32_t>(seq);
    unsigned payload = config.txPayloadBytes;
    if (next) {
        auto [flow, bytes] = *next;
        fatal_if(bytes < 18 || bytes > udpMaxPayloadBytes,
                 "tx schedule payload out of range: ", bytes);
        payload = bytes;
        std::uint32_t fseq = txFlowSeq[flow]++;
        host.store().putFrame(
            buf, FrameDesc{hdr_seed, fseq, flow, payload});
        txPostedMeta[seq % config.sendRingFrames] = {flow, fseq};
    } else {
        host.store().putSpan(
            buf,
            {FrameDesc{hdr_seed, static_cast<std::uint32_t>(seq), 0,
                       payload},
             0, txHeaderBytes});
        for (unsigned s = 0; s < segs; ++s) {
            host.store().putSpan(
                buf + txHeaderBytes + static_cast<Addr>(s) * payload,
                {FrameDesc{hdr_seed, static_cast<std::uint32_t>(seq + s),
                           0, payload},
                 txHeaderBytes, payload});
            txPostedMeta[(seq + s) % config.sendRingFrames] =
                {0, static_cast<std::uint32_t>(seq + s)};
        }
    }

    std::uint32_t flags = BufferDesc::flagLast;
    if (segs > 1)
        flags |= BufferDesc::flagTso |
            (segs << BufferDesc::segmentShift);
    BufferDesc bd0{buf, txHeaderBytes, BufferDesc::flagFirst};
    BufferDesc bd1{buf + txHeaderBytes,
                   payload * segs, flags};
    Addr ring_at = sendRing +
        static_cast<Addr>((group * 2) % sendRingBds) *
        BufferDesc::bytes;
    host.write(ring_at, &bd0, sizeof(bd0));
    host.write(ring_at + BufferDesc::bytes, &bd1, sizeof(bd1));
    txPosted += segs;
    return true;
}

void
DeviceDriver::postSendFrames(unsigned n)
{
    fatal_if(n % config.tsoSegments != 0,
             "post count must be whole TSO groups");
    std::uint64_t before = txPosted;
    for (unsigned i = 0; i < n; i += config.tsoSegments) {
        fatal_if(txPosted - txConsumed >= config.sendRingFrames,
                 "send ring overflow: posting past unconsumed frames");
        if (!postOneSendFrame())
            break;
    }
    if (sendDoorbell && txPosted > before)
        sendDoorbell(txPosted / config.tsoSegments * 2);
}

void
DeviceDriver::startBackloggedSend()
{
    backlogged = true;
    unsigned space = config.sendRingFrames -
        static_cast<unsigned>(txPosted - txConsumed);
    space -= space % config.tsoSegments;
    postSendFrames(space);
}

void
DeviceDriver::txConsumedUpTo(std::uint64_t frames)
{
    // Consumed-index writebacks from concurrently executing firmware
    // handlers can land out of order; stale updates are ignored, as in
    // a real driver.
    if (frames <= txConsumed)
        return;
    panic_if(frames > txPosted, "NIC consumed frames never posted");
    txConsumed = frames;
    resumeSend();
}

void
DeviceDriver::resumeSend()
{
    if (!backlogged)
        return;
    unsigned space = config.sendRingFrames -
        static_cast<unsigned>(txPosted - txConsumed);
    space -= space % config.tsoSegments;
    if (space > 0)
        postSendFrames(space);
}

void
DeviceDriver::primeReceivePool()
{
    postRecvBds(config.recvPoolBuffers);
}

void
DeviceDriver::postRecvBds(unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        std::uint64_t idx = rxBdsPosted;
        unsigned slot = static_cast<unsigned>(idx %
                                              config.recvPoolBuffers);
        Addr buf = rxBufBase +
            static_cast<Addr>(slot) * ethMaxFrameBytes;
        BufferDesc bd{buf, ethMaxFrameBytes, 0};
        Addr ring_at = recvRing +
            static_cast<Addr>(idx % recvRingBds) * BufferDesc::bytes;
        host.write(ring_at, &bd, sizeof(bd));
        ++rxBdsPosted;
    }
    if (recvDoorbell && n > 0)
        recvDoorbell(rxBdsPosted);
}

void
DeviceDriver::rxCompletion(Addr host_buf, std::uint32_t len)
{
    if (len == 0) {
        // The NIC zeroed the completion length: the frame's content
        // DMA was abandoned under fault injection and the buffer holds
        // stale bytes.  Recycle it without delivering anything.
        ++rxFaultDrops;
        ++rxBuffersReturned;
        std::uint64_t outstanding = rxBdsPosted - rxBuffersReturned;
        if (outstanding + config.recvPostBatch <= config.recvPoolBuffers)
            postRecvBds(config.recvPostBatch);
        return;
    }
    ++rxDelivered;
    // Descriptor fast path: a clean frame lands as one whole-frame
    // span and validates in O(1).  Corrupted or previously
    // materialized frames miss and fall back to real bytes.
    std::optional<FrameDesc> desc = host.store().viewFrame(host_buf, len);
    FrameView v;
    v.len = len;
    if (desc)
        v.desc = &*desc;
    else
        v.bytes = host.bytesFor(host_buf, len);
    if (rxDeliver)
        rxDeliver(v);

    // Replenish the pool in batches once enough buffers are returned.
    ++rxBuffersReturned;
    std::uint64_t outstanding = rxBdsPosted - rxBuffersReturned;
    if (outstanding + config.recvPostBatch <= config.recvPoolBuffers)
        postRecvBds(config.recvPostBatch);
}

} // namespace tengig
