/**
 * @file
 * Backing storage and address allocation for the on-chip scratchpad.
 *
 * Firmware control state that multiple agents race on (status bit arrays,
 * commit pointers, hardware progress pointers, locks) lives in real bytes
 * here, and this is the only place scratchpad words change: the firmware
 * applies loads, stores and the paper's atomic set/update instructions
 * to these bytes when it dispatches them, while the Scratchpad crossbar
 * in front of them only times the accesses.
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
     * The paper's "set" instruction: set @p bit (0-31) in the aligned
     * word at @p wordAddr.
     */
    void
    atomicSet(Addr wordAddr, unsigned bit)
    {
        storeWord(wordAddr, loadWord(wordAddr) | (1u << bit));
    }

    /**
     * The paper's "update" instruction: clear the run of consecutive
     * set bits that starts at @p startBit (0-31), stopping at the end
     * of the aligned word at @p wordAddr.
     * @return The number of bits cleared.
     */
    std::uint32_t
    atomicUpdate(Addr wordAddr, unsigned startBit)
    {
        std::uint32_t v = loadWord(wordAddr);
        std::uint32_t cleared = 0;
        for (unsigned bit = startBit; bit < 32; ++bit) {
            if (!(v & (1u << bit)))
                break;
            v &= ~(1u << bit);
            ++cleared;
        }
        storeWord(wordAddr, v);
        return cleared;
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
