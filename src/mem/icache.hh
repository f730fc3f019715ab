/**
 * @file
 * Per-core instruction caches fed by a shared 128-bit instruction memory.
 *
 * The paper uses a single 128 KB instruction memory whose 128-bit port
 * fills per-processor 8 KB 2-way set-associative caches with 32-byte
 * lines.  The port is a shared resource but is idle ~97% of the time at
 * line rate (Table 4), so contention is modeled simply as a busy-until
 * window.
 */

#ifndef TENGIG_MEM_ICACHE_HH
#define TENGIG_MEM_ICACHE_HH

#include <cstdint>
#include <vector>

#include "sim/clock.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tengig {

/**
 * Shared instruction memory with a 128-bit (16 B per CPU cycle) fill port.
 */
class InstructionMemory
{
  public:
    /**
     * @param access_cycles Fixed access latency before the first beat.
     */
    InstructionMemory(const ClockDomain &domain, unsigned access_cycles = 2)
        : clock(domain), accessCycles(access_cycles)
    {}

    /**
     * Request a line fill starting at @p now.
     *
     * @param now Current tick.
     * @param line_bytes Size of the fill in bytes.
     * @return Tick at which the fill data is fully delivered.
     */
    Tick
    fill(Tick now, unsigned line_bytes)
    {
        Tick start = std::max(clock.nextEdgeAtOrAfter(now), busyUntil);
        Cycles beats = (line_bytes + beatBytes - 1) / beatBytes;
        Tick done = start + clock.cyclesToTicks(accessCycles + beats);
        busyUntil = done;
        ++fills;
        bytes += line_bytes;
        busyTicks += done - start;
        return done;
    }

    /// @name Statistics for Table 4 (instruction memory bandwidth)
    /// @{
    std::uint64_t fillCount() const { return fills.value(); }
    std::uint64_t bytesTransferred() const { return bytes.value(); }

    /** Consumed fill bandwidth in Gb/s over [0, now]. */
    double
    consumedBandwidthGbps(Tick now) const
    {
        if (now == 0)
            return 0.0;
        return static_cast<double>(bytes.value()) * 8.0 /
               (static_cast<double>(now) / tickPerSec) / 1e9;
    }

    /** Peak port bandwidth in Gb/s (16 B per CPU cycle). */
    double
    peakBandwidthGbps() const
    {
        return beatBytes * 8.0 * clock.frequencyMhz() * 1e6 / 1e9;
    }

    /** Fraction of time the port was busy over [0, now]. */
    double
    utilization(Tick now) const
    {
        return now ? static_cast<double>(busyTicks.value()) / now : 0.0;
    }
    /// @}

    void
    resetStats()
    {
        fills.reset();
        bytes.reset();
        busyTicks.reset();
    }

  private:
    static constexpr unsigned beatBytes = 16; // 128-bit port

    const ClockDomain &clock;
    unsigned accessCycles;
    Tick busyUntil = 0;
    stats::Counter fills;
    stats::Counter bytes;
    stats::Counter busyTicks;
};

/**
 * An 8 KB 2-way set-associative instruction cache with true-LRU
 * replacement and 32 B lines (all parameters configurable).
 *
 * The cache is a timing filter for the core's fetch stream: lookup()
 * either hits (no stall) or charges the shared-port fill latency.
 */
class ICache
{
  public:
    ICache(InstructionMemory &imem, std::size_t capacity = 8 * 1024,
           unsigned assoc = 2, unsigned line_size = 32);

    /**
     * Look up the line containing @p pc at time @p now.
     *
     * @return Stall ticks the core must wait (0 on hit).
     */
    Tick lookup(Addr pc, Tick now);

    unsigned lineSize() const { return lineBytes; }

    /** log2(lineSize()); line size is enforced to be a power of two. */
    unsigned lineShift() const { return lineShiftBits; }

    std::uint64_t hits() const { return hitCount.value(); }
    std::uint64_t misses() const { return missCount.value(); }

    double
    missRatio() const
    {
        std::uint64_t total = hitCount.value() + missCount.value();
        return total ? static_cast<double>(missCount.value()) / total : 0.0;
    }

    void
    resetStats()
    {
        hitCount.reset();
        missCount.reset();
    }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    InstructionMemory &imem;
    unsigned lineBytes;
    unsigned numSets;
    unsigned ways;
    // Line size and set count are enforced powers of two, so the hot
    // set/tag decomposition is shifts and masks, not divisions.
    unsigned lineShiftBits = 0;
    unsigned setShiftBits = 0;
    Addr setMask = 0;
    std::vector<Line> lines; // sets * ways
    std::uint64_t useClock = 0;

    stats::Counter hitCount;
    stats::Counter missCount;
};

} // namespace tengig

#endif // TENGIG_MEM_ICACHE_HH
