/**
 * @file
 * Task-level parallel firmware dispatcher (Section 3.2, Fig. 4).
 *
 * The Tigon-II-style event register is a hardware-maintained bit
 * vector with one bit per event *type*.  A processor that starts
 * handling a type owns it exclusively until it has drained all pending
 * work of that type and cleared the bit -- even if more work of the
 * same type becomes ready while it is busy and other processors sit
 * idle.  That serialization is precisely why task-level parallelism
 * stops scaling (the paper's motivation for the frame-level design);
 * the ablation bench quantifies it.
 */

#ifndef TENGIG_FIRMWARE_EVENT_REGISTER_HH
#define TENGIG_FIRMWARE_EVENT_REGISTER_HH

#include <vector>

#include "firmware/tasks.hh"
#include "proc/dispatcher.hh"

namespace tengig {

class EventRegisterDispatcher : public Dispatcher
{
  public:
    /**
     * @param max_passes Bundles processed per handler activation
     *        before the core re-reads the event register (bounds the
     *        length of one op stream; the type stays owned across
     *        activations until drained).
     */
    EventRegisterDispatcher(FwTasks &tasks, unsigned max_cores,
                            unsigned max_passes = 4);

    void next(unsigned core_id, OpList &out) override;

    std::uint64_t idlePolls() const { return idle.value(); }
    std::uint64_t dispatches() const { return found.value(); }

  private:
    struct EventType
    {
        bool isTx;
        bool (FwTasks::*ready)() const;
        bool (FwTasks::*run)(OpRecorder &);
        bool busy = false; //!< owned by some processor
    };

    /** Run the owned type until drained or the pass cap. */
    bool service(OpRecorder &rec, unsigned core_id, std::size_t type);

    FwTasks &tasks;
    std::vector<EventType> types;
    std::vector<int> owned;     //!< per-core owned type (-1 = none)
    Addr eventRegAddr;
    unsigned maxPasses;
    unsigned rotate = 0;

    stats::Counter idle;
    stats::Counter found;
};

} // namespace tengig

#endif // TENGIG_FIRMWARE_EVENT_REGISTER_HH
