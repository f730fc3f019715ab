/**
 * @file
 * Region-overlay byte store: a flat demand-zero backing array
 * (ZeroPages) plus a sparse map of pattern spans (FrameDesc windows)
 * that stand in for bytes which are a pure function of (hdrSeed, seq,
 * flow, payLen).
 *
 * The NIC data path writes whole frames whose contents the simulator
 * itself generated, so in steady state the store holds descriptors and
 * never touches the backing bytes.  Anything that reads a spanned
 * region through the byte interface (firmware loads, tests, corrupted
 * frames) triggers copy-on-access materialization: the span's bytes
 * are expanded into the backing array, counted, and the span erased —
 * readBytes/writeBytes thus stay available as the fully general
 * slow-path escape hatch.  A `materializations` counter proves the
 * clean steady-state workloads move zero payload bytes.
 *
 * Because the payload stays virtual, most of the backing array is
 * never touched; it is mapped demand-zero, so untouched capacity costs
 * no construction time and no resident memory, and reads as 0.
 */

#ifndef TENGIG_MEM_OVERLAY_HH
#define TENGIG_MEM_OVERLAY_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "mem/zero_pages.hh"
#include "net/frame.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tengig {

class OverlayMem
{
  public:
    /**
     * A window [off, off+len) of the frame a descriptor denotes,
     * stored at some base address.  Most spans cover a whole frame
     * (off = 0, len = desc.totalLen()); partial spans appear when a
     * frame is staged in pieces (header burst, then payload burst).
     */
    struct PatSpan
    {
        FrameDesc desc;
        std::uint32_t off = 0; //!< frame-relative start
        std::uint32_t len = 0; //!< bytes covered
    };

    /** @p what names the store in a fatal mapping failure. */
    explicit OverlayMem(std::size_t capacity,
                        const char *what = "overlay")
        : mem(capacity, what)
    {}

    std::size_t size() const { return mem.size(); }

    /** Overflow-safe bounds check shared by every access path. */
    void
    boundsCheck(Addr addr, std::size_t len, const char *what) const
    {
        panic_if(len > mem.size() || addr > mem.size() - len,
                 what, " out of range: addr=", addr, " len=", len);
    }

    /**
     * Install a pattern span at @p addr.  Overlapping spans are
     * trimmed away without materializing (the new contents supersede
     * them, exactly as an overlapping byte write would), then the new
     * span is merged with byte-adjacent neighbours that continue the
     * same frame — so a header span at X and a payload span at X+42
     * coalesce into one whole-frame span.
     */
    void putSpan(Addr addr, const PatSpan &span);

    /** Install a whole-frame span (off = 0, len = desc.totalLen()). */
    void
    putFrame(Addr addr, const FrameDesc &desc)
    {
        putSpan(addr, PatSpan{desc, 0, desc.totalLen()});
    }

    /** Byte write: trims overlapping spans, never materializes. */
    void writeBytes(Addr addr, const std::uint8_t *src, std::size_t len,
                    const char *what = "overlay write");

    /** Byte read: materializes every overlapping span first. */
    void readBytes(Addr addr, std::uint8_t *dst, std::size_t len,
                   const char *what = "overlay read") const;

    /**
     * Expand every span overlapping [addr, addr+len) into the backing
     * array (bumping the materialization counter) and drop the spans.
     * After this the backing bytes for the range are authoritative.
     */
    void materializeRange(Addr addr, std::size_t len) const;

    /**
     * Copy @p len bytes from @p src at @p src_addr into this store at
     * @p dst_addr, preserving virtualness: span-covered stretches of
     * the source move as (rebased) spans, raw stretches as bytes.
     * This is the DMA-assist fast path — no materialization.
     */
    void copyFrom(const OverlayMem &src, Addr src_addr, Addr dst_addr,
                  std::size_t len);

    /**
     * Descriptor fast path for a reader that wants a whole frame: the
     * descriptor iff [addr, addr+len) is covered by exactly one
     * whole-frame span.  Misses (raw bytes, partial span, span plus
     * dirty overlap) return nullopt and the caller falls back to
     * readBytes.
     */
    std::optional<FrameDesc> viewFrame(Addr addr, std::size_t len) const;

    /**
     * Pointer into the backing array after materializing the range:
     * general byte-level access for tests and validation fallbacks.
     */
    const std::uint8_t *
    bytesFor(Addr addr, std::size_t len) const
    {
        boundsCheck(addr, len, "overlay access");
        materializeRange(addr, len);
        return mem.data() + addr;
    }

    /** Raw backing access; callers must know the range is span-free. */
    const std::uint8_t *raw(Addr addr) const { return mem.data() + addr; }
    std::uint8_t *raw(Addr addr) { return mem.data() + addr; }

    /** Pattern spans currently installed (observability/tests). */
    std::size_t spanCount() const { return spans.size(); }

    /** Spans expanded to bytes since construction (0 = pure virtual). */
    std::uint64_t materializations() const { return materialized; }

  private:
    using SpanMap = std::map<Addr, PatSpan>;

    /** Remove span coverage of [addr, addr+len), keeping outside parts. */
    void trimRange(Addr addr, std::size_t len);

    /**
     * Extract the span at @p it into the node cache (steady state
     * churns spans at frame rate; recycling map nodes keeps the churn
     * off the allocator) and @return the following iterator.
     */
    SpanMap::iterator eraseSpan(SpanMap::iterator it);

    /** Insert a span, reusing a cached node when one is available.
     *  The caller guarantees @p addr is not already a span base. */
    SpanMap::iterator insertSpan(Addr addr, const PatSpan &span);

    /** First span with base > addr stepped back to the one covering
     *  addr, i.e. iterator to the first span that could overlap
     *  [addr, ...). */
    SpanMap::iterator lowerSpan(Addr addr);
    SpanMap::const_iterator lowerSpan(Addr addr) const;

    /** Try to merge the span at @p it with its address-adjacent
     *  successor; returns true if merged. */
    bool mergeWithNext(SpanMap::iterator it);

    // mutable: reads are logically const but expand spans into backing
    // bytes (copy-on-access) and count the event.
    mutable ZeroPages mem;
    mutable SpanMap spans; //!< keyed by base address
    mutable std::vector<SpanMap::node_type> nodeCache;
    mutable std::uint64_t materialized = 0;
};

} // namespace tengig

#endif // TENGIG_MEM_OVERLAY_HH
