/**
 * @file
 * Banked scratchpad behind a 32-bit crossbar (Fig. 6 of the paper).
 *
 * Timing model:
 *  - S independent banks, word-interleaved.
 *  - One transaction per bank per CPU cycle; round-robin arbitration among
 *    requesters (P cores + 4 hardware assists).
 *  - Minimum latency of 2 cycles: one to request and traverse the crossbar,
 *    one to access the bank and return data.  Queueing behind other
 *    requesters adds "conflict" cycles, reported separately so the Table 3
 *    IPC breakdown can attribute them.
 *  - Stores are acknowledged one cycle after their grant (when the bank
 *    accepts the write) so a single-entry store buffer can hide them.
 *
 * The atomic read-modify-write instructions proposed by the paper (set,
 * update) and the test-and-set used by the baseline's locks execute at the
 * bank at access time.
 */

#ifndef TENGIG_MEM_SCRATCHPAD_HH
#define TENGIG_MEM_SCRATCHPAD_HH

#include <functional>
#include <vector>

#include "mem/spad_storage.hh"
#include "sim/clock.hh"
#include "sim/small_fn.hh"
#include "sim/stats.hh"

namespace tengig {

namespace obs { class StatGroup; }

/** Operation kinds a scratchpad bank can execute. */
enum class SpadOp
{
    Read,
    Write,
    /** Atomically set bit (wdata & 31) in the addressed 32-bit word. */
    AtomicSet,
    /**
     * Atomically scan the addressed aligned 32-bit word for consecutive
     * set bits starting at bit (wdata & 31), clear them, and return the
     * count cleared (the paper's "update" RMW instruction).
     */
    AtomicUpdate,
    /** Atomically read the word and set it to 1 (lock acquire probe). */
    AtomicTestSet,
    /**
     * Timing-only variants used by the core replay engine: they consume
     * crossbar/bank bandwidth and count in the statistics, but never
     * touch storage (the firmware already applied its state change
     * functionally at dispatch time).
     */
    WriteTiming,
    RmwTiming,
};

/**
 * Banked scratchpad + crossbar timing model with atomic ops.
 */
class Scratchpad : public Clocked
{
  public:
    struct Response
    {
        std::uint32_t data;     //!< load / RMW result
        Cycles conflictCycles;  //!< grant delay beyond the minimum
        bool isWrite;
    };

    /**
     * Completion callback.  SmallFn rather than std::function: every
     * hot caller captures just its `this` pointer, so responses move
     * through the bank queue and the completion event without manager
     * thunks or heap spills (oversized cold-path closures still spill
     * safely).
     */
    using Callback = SmallFn<void(const Response &), 16>;

    /**
     * @param requesters Number of crossbar requesters (cores + assists).
     * @param capacity Scratchpad size in bytes (paper: 256 KB).
     * @param banks Number of independent banks (paper: 2-4).
     * @param interleave Bank interleaving granularity in bytes.
     */
    Scratchpad(EventQueue &eq, const ClockDomain &domain,
               unsigned requesters, std::size_t capacity, unsigned banks,
               unsigned interleave = 4);

    /**
     * Issue a timed access.  @p cb fires on the data-return edge for
     * reads/RMWs and on the write-accept edge for writes.  It is legal to
     * pass a null callback for fire-and-forget writes.
     */
    void access(unsigned requester, Addr addr, SpadOp op,
                std::uint32_t wdata, Callback cb);

    /** Untimed state access (initialization, checkers, tests). */
    SpadStorage &storage() { return store; }
    const SpadStorage &storage() const { return store; }

    /**
     * Install an access tracer invoked at every bank grant with
     * (requester, word address, is_write).  Used to capture the
     * control-data traces the coherence study (Figure 3) analyzes.
     */
    void
    setTracer(std::function<void(unsigned, Addr, bool)> fn)
    {
        tracer = std::move(fn);
    }

    unsigned numBanks() const { return static_cast<unsigned>(banks.size()); }
    unsigned bankOf(Addr addr) const;

    /** Functional versions of the RMW ops (used by tests/oracles). */
    std::uint32_t functionalAtomicSet(Addr wordAddr, unsigned bit);
    std::uint32_t functionalAtomicUpdate(Addr wordAddr, unsigned startBit);

    /// @name Statistics
    /// @{
    std::uint64_t totalAccesses() const;
    std::uint64_t totalConflictCycles() const;
    std::uint64_t readAccesses() const { return reads.value(); }
    std::uint64_t writeAccesses() const { return writes.value(); }
    std::uint64_t rmwAccesses() const { return rmws.value(); }
    /** Consumed bandwidth in Gb/s over [0, now]. */
    double consumedBandwidthGbps(Tick now) const;

    /** Register counters into the owner's stat tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;
    void resetStats();
    /// @}

  private:
    struct Request
    {
        unsigned requester;
        Addr addr;
        SpadOp op;
        std::uint32_t wdata;
        Callback cb;
        Cycles arrival;   //!< cycle the request reached the bank queue
    };

    struct Bank
    {
        /// Pending requests; a vector because queues stay shallow (a
        /// handful of requesters) and the grant scan walks it anyway.
        std::vector<Request> queue;
        unsigned rrNext = 0;      //!< round-robin pointer over requesters
        bool serviceScheduled = false;
        Cycles nextFree = 0;      //!< earliest cycle the next grant may run
        stats::Counter accesses;
        stats::Counter conflictCycles;
    };

    void scheduleService(unsigned bank);
    void serviceBank(unsigned bank);
    std::uint32_t executeAt(const Request &req);

    SpadStorage store;
    std::function<void(unsigned, Addr, bool)> tracer;
    std::vector<Bank> banks;
    unsigned numRequesters;
    unsigned interleaveBytes;

    stats::Counter reads, writes, rmws;
};

} // namespace tengig

#endif // TENGIG_MEM_SCRATCHPAD_HH
