/**
 * @file
 * Demand-zero byte buffer: the backing store of host memory, SDRAM and
 * the scratchpad.
 *
 * The buffer is an anonymous private mapping, so the kernel hands out
 * zero-filled pages on first touch: capacity that a run never touches
 * costs neither construction time nor resident memory.  The zero-copy
 * data path leaves frame payloads as overlay descriptors, so building
 * and starting a default NIC makes under 1 MB resident, not the 72 MB
 * of its host memory and SDRAM.
 *
 * The mapping carries no allocator redzones, so every access path of
 * the owning store keeps its own bounds check.
 */

#ifndef TENGIG_MEM_ZERO_PAGES_HH
#define TENGIG_MEM_ZERO_PAGES_HH

#include <cstddef>
#include <cstdint>

namespace tengig {

/** Move-only RAII owner of a zero-initialized anonymous mapping. */
class ZeroPages
{
  public:
    /**
     * Map @p bytes of demand-zero memory; 0 maps nothing.  A mapping
     * the address space or the kernel cannot provide is fatal, with
     * @p what naming the store in the message.
     */
    ZeroPages(std::size_t bytes, const char *what);
    ~ZeroPages();

    ZeroPages(ZeroPages &&other) noexcept;
    ZeroPages &operator=(ZeroPages &&other) noexcept;
    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    std::size_t size() const { return len; }
    std::uint8_t *data() { return base; }
    const std::uint8_t *data() const { return base; }

  private:
    void release() noexcept;

    std::uint8_t *base = nullptr;
    std::size_t len = 0;
};

} // namespace tengig

#endif // TENGIG_MEM_ZERO_PAGES_HH
