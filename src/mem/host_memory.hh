/**
 * @file
 * Flat host main-memory model.
 *
 * The paper deliberately does not model host-interconnect bandwidth or
 * latency (its §5), so host memory is an untimed byte store.  The DMA
 * assists still pay the internal-bus / SDRAM costs on the NIC side of
 * every transfer.
 *
 * Storage is an OverlayMem: steady-state frame payloads live as
 * pattern descriptors (the driver posts spans, the DMA assists move
 * them without expansion) and only turn into real bytes when a
 * byte-level reader forces copy-on-access materialization.  The
 * backing bytes are mapped demand-zero, so the 64 MB default capacity
 * costs resident memory only for the pages the driver actually writes
 * (rings, descriptors, status words).
 */

#ifndef TENGIG_MEM_HOST_MEMORY_HH
#define TENGIG_MEM_HOST_MEMORY_HH

#include <cstdint>
#include <cstring>

#include "mem/overlay.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tengig {

class HostMemory
{
  public:
    explicit HostMemory(std::size_t capacity = 64 * 1024 * 1024)
        : mem(capacity, "host memory")
    {}

    std::size_t capacity() const { return mem.size(); }

    void
    write(Addr addr, const void *src, std::size_t len)
    {
        mem.writeBytes(addr, static_cast<const std::uint8_t *>(src), len,
                       "host memory write");
    }

    void
    read(Addr addr, void *dst, std::size_t len) const
    {
        mem.readBytes(addr, static_cast<std::uint8_t *>(dst), len,
                      "host memory read");
    }

    /** Overlay store: span posting, descriptor views, assist copies. */
    OverlayMem &store() { return mem; }
    const OverlayMem &store() const { return mem; }

    /**
     * Byte pointer valid for @p len bytes, materializing any pattern
     * spans in the range first.  The general-purpose accessor for
     * tests and validation fallbacks.
     */
    const std::uint8_t *
    bytesFor(Addr addr, std::size_t len) const
    {
        return mem.bytesFor(addr, len);
    }

    /** Bump-allocate a host buffer. */
    Addr
    alloc(std::size_t bytes, std::size_t align = 8)
    {
        Addr base = (brk + align - 1) & ~static_cast<Addr>(align - 1);
        fatal_if(bytes > mem.size() || base > mem.size() - bytes,
                 "host memory exhausted");
        brk = base + bytes;
        return base;
    }

  private:
    OverlayMem mem;
    Addr brk = 64; // keep address 0 invalid
};

} // namespace tengig

#endif // TENGIG_MEM_HOST_MEMORY_HH
