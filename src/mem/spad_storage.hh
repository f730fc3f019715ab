/**
 * @file
 * Backing storage and address allocation for the on-chip scratchpad.
 *
 * Firmware control state that multiple agents race on (status bit arrays,
 * commit pointers, hardware progress pointers, locks) lives in real bytes
 * here so the atomic read-modify-write instructions operate on actual
 * memory, exactly as in the proposed hardware.
 *
 * The bytes are a demand-zero mapping (ZeroPages): they read as 0 until
 * written, and only the pages the firmware layout touches become
 * resident.
 */

#ifndef TENGIG_MEM_SPAD_STORAGE_HH
#define TENGIG_MEM_SPAD_STORAGE_HH

#include <cstdint>
#include <cstring>
#include <string>

#include "mem/zero_pages.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tengig {

/**
 * Flat byte store with word accessors and a bump allocator.
 */
class SpadStorage
{
  public:
    explicit SpadStorage(std::size_t capacity)
        : mem(capacity, "scratchpad")
    {}

    std::size_t capacity() const { return mem.size(); }

    std::uint32_t
    loadWord(Addr addr) const
    {
        checkRange(addr, 4);
        std::uint32_t v;
        std::memcpy(&v, mem.data() + addr, 4);
        return v;
    }

    void
    storeWord(Addr addr, std::uint32_t v)
    {
        checkRange(addr, 4);
        std::memcpy(mem.data() + addr, &v, 4);
    }

    std::uint8_t
    loadByte(Addr addr) const
    {
        checkRange(addr, 1);
        return mem.data()[addr];
    }

    void
    storeByte(Addr addr, std::uint8_t v)
    {
        checkRange(addr, 1);
        mem.data()[addr] = v;
    }

    /**
     * Allocate @p bytes of scratchpad space aligned to @p align.
     * @return Base address of the allocation.
     */
    Addr
    alloc(std::size_t bytes, std::size_t align = 4)
    {
        Addr base = (brk + align - 1) & ~static_cast<Addr>(align - 1);
        fatal_if(bytes > mem.size() || base > mem.size() - bytes,
                 "[scratchpad] exhausted: need ", bytes, "B at ", base,
                 ", capacity ", mem.size(), "B");
        brk = base + bytes;
        return base;
    }

    /** Bytes allocated so far (for the 100 KB-working-set check). */
    std::size_t allocated() const { return brk; }

  private:
    void
    checkRange(Addr addr, std::size_t len) const
    {
        panic_if(len > mem.size() || addr > mem.size() - len,
                 "[scratchpad] access out of range: addr=", addr,
                 " len=", len, " capacity=", mem.size());
    }

    ZeroPages mem;
    Addr brk = 0;
};

} // namespace tengig

#endif // TENGIG_MEM_SPAD_STORAGE_HH
