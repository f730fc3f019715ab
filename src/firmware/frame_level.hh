/**
 * @file
 * Frame-level parallel firmware dispatcher (Section 3.3, Fig. 5).
 *
 * Every core runs the same dispatch loop: it polls the hardware
 * progress pointers and software claim pointers, builds an event
 * structure for the first bundle of ready work units it finds, and
 * executes the handler -- so any number of cores can run the *same*
 * handler type concurrently on different frames.  Total frame ordering
 * is restored by the status-flag commit machinery inside the tasks.
 */

#ifndef TENGIG_FIRMWARE_FRAME_LEVEL_HH
#define TENGIG_FIRMWARE_FRAME_LEVEL_HH

#include "firmware/tasks.hh"
#include "proc/dispatcher.hh"

namespace tengig {

class FrameLevelDispatcher : public Dispatcher
{
  public:
    explicit FrameLevelDispatcher(FwTasks &tasks);

    void next(unsigned core_id, OpList &out) override;

    std::uint64_t idlePolls() const { return idle.value(); }
    std::uint64_t dispatches() const { return found.value(); }

  private:
    /** One dispatch-loop check: poll cost + conditional task body. */
    struct Check
    {
        bool isTx;
        Addr pollAddr;                       //!< progress word polled
        bool (FwTasks::*ready)() const;
        bool (FwTasks::*run)(OpRecorder &);
    };

    FwTasks &tasks;
    std::vector<Check> checks;
    unsigned rotate = 0;

    stats::Counter idle;
    stats::Counter found;
};

} // namespace tengig

#endif // TENGIG_FIRMWARE_FRAME_LEVEL_HH
