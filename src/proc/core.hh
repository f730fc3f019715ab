/**
 * @file
 * Single-issue in-order core timing model (Section 4 of the paper).
 *
 * Each core is a 5-stage pipelined MIPS-R4000-subset processor:
 *  - one instruction issued per cycle;
 *  - a single store may be buffered in the MEM stage, so stores do not
 *    stall unless a second memory operation issues before the buffered
 *    store is accepted by its scratchpad bank;
 *  - loads always pay the >= 2-cycle scratchpad latency, i.e. at least
 *    one pipeline bubble; crossbar/bank queueing adds conflict stalls;
 *  - branch/hazard effects appear as per-op annul/stall cycles recorded
 *    by the firmware;
 *  - instruction fetch goes through a private I-cache filled from the
 *    shared instruction memory.
 *
 * Lost cycles are attributed to the exact categories of the paper's
 * Table 3: execution, I-miss stalls, load stalls, scratchpad conflict
 * stalls, and pipeline stalls.
 */

#ifndef TENGIG_PROC_CORE_HH
#define TENGIG_PROC_CORE_HH

#include <string>

#include "mem/icache.hh"
#include "mem/scratchpad.hh"
#include "proc/dispatcher.hh"
#include "proc/micro_op.hh"
#include "sim/clock.hh"

namespace tengig {

namespace obs { class StatGroup; }

/**
 * Instruction-address layout: each firmware function bucket owns a
 * region of the 128 KB instruction memory.  Replayed ops advance a
 * synthetic PC through their bucket's region (wrapping, which models
 * loops re-executing resident lines), so tasks migrating between cores
 * produce genuine cold I-cache misses.
 */
struct CodeLayout
{
    Addr base[numFuncTags] = {};
    Addr size[numFuncTags] = {};

    /** Lay out all buckets contiguously with the given region size. */
    static CodeLayout uniform(Addr region_bytes);
};

/** Per-core cycle accounting (Table 3 categories). */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t executeCycles = 0;   //!< issue slots doing real work
    std::uint64_t imissCycles = 0;
    std::uint64_t loadStallCycles = 0; //!< the mandatory load bubbles
    std::uint64_t conflictCycles = 0;  //!< bank/crossbar queueing
    std::uint64_t pipelineCycles = 0;  //!< hazards + branch annuls
    std::uint64_t idleCycles = 0;      //!< empty-handed poll gaps
    std::uint64_t invocations = 0;
    std::uint64_t idlePolls = 0;

    std::uint64_t
    totalCycles() const
    {
        return executeCycles + imissCycles + loadStallCycles +
               conflictCycles + pipelineCycles + idleCycles;
    }

    double
    ipc() const
    {
        std::uint64_t t = totalCycles();
        return t ? static_cast<double>(instructions) / t : 0.0;
    }
};

/**
 * The core timing model.  Pulls op streams from a Dispatcher and
 * replays them against the scratchpad and I-cache.
 */
class Core : public Clocked
{
  public:
    /**
     * @param id Core index; also its crossbar requester id.
     * @param profile Shared per-function profile to accumulate into.
     */
    Core(EventQueue &eq, const ClockDomain &domain, unsigned id,
         Dispatcher &dispatcher, Scratchpad &spad, ICache &icache,
         const CodeLayout &layout, FirmwareProfile &profile);

    /** Begin executing at the next clock edge. */
    void start();

    /** Stop pulling new work once the current op completes. */
    void stop() { running = false; }

    unsigned id() const { return coreId; }

    /** Cycle accounting. */
    const CoreStats &stats() const { return _stats; }
    void resetStats() { _stats = CoreStats{}; }

    /**
     * Tick at which the core last retired a real (non-idle-poll)
     * firmware invocation.  The firmware watchdog samples this: a busy
     * pipeline whose cores stop advancing it is a stall.
     */
    Tick lastRetireTick() const { return lastRetire; }

    /** Register cycle-accounting stats into the owner's tree (src/obs). */
    void registerStats(obs::StatGroup &g) const;

    /** Timeline row for firmware-invocation spans (src/obs recorder). */
    void setTraceLane(unsigned lane) { traceLane = lane; }

  private:
    void nextInvocation();
    void beginOp();
    void issueMem();
    void memResponse(const Scratchpad::Response &r);
    void tryIssueStore();
    /** Model instruction fetch of @p instrs instructions; returns stall. */
    Cycles fetchStall(FuncTag tag, unsigned instrs);
    void chargeImiss(FuncTag tag, Cycles imiss);
    void account(FuncTag tag, std::uint64_t instrs, std::uint64_t mem,
                 std::uint64_t cycles);

    unsigned coreId;
    Dispatcher &dispatcher;
    Scratchpad &spad;
    ICache &icache;
    CodeLayout layout;
    FirmwareProfile &profile;

    OpList current;
    std::size_t opIdx = 0;
    std::size_t actIdx = 0; //!< next entry of current.actions to fire
    Addr pcOffset[numFuncTags] = {}; //!< per-bucket PC offset
    bool running = false;

    bool storeBufferBusy = false;
    FuncTag pendingTag = FuncTag::Idle; //!< in-flight store bookkeeping
    Addr pendingAddr = 0;

    // Persistent continuation events: armed with an 8-byte trampoline,
    // so the replay loop allocates nothing in steady state.
    ClockedEvent invEvent;   //!< -> nextInvocation()
    ClockedEvent opEvent;    //!< -> beginOp()
    ClockedEvent issueEvent; //!< -> issueMem() after an I-miss
    ClockedEvent storeEvent; //!< -> tryIssueStore()

    unsigned traceLane = 0xffffffffu; //!< obs::noTraceLane
    bool invTraced = false;           //!< an invocation span is open
    Tick invStart = 0;
    FuncTag invTag = FuncTag::Idle;
    Tick lastRetire = 0;              //!< see lastRetireTick()

    CoreStats _stats;
};

} // namespace tengig

#endif // TENGIG_PROC_CORE_HH
