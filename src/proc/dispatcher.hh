/**
 * @file
 * Interface between the cores and the firmware's work-distribution
 * mechanism (event register or distributed event queue).
 */

#ifndef TENGIG_PROC_DISPATCHER_HH
#define TENGIG_PROC_DISPATCHER_HH

#include "proc/micro_op.hh"

namespace tengig {

/**
 * Supplies cores with handler invocations.
 *
 * next() is called each time a core finishes its previous op stream.
 * The implementation runs its dispatch logic *functionally* (claiming
 * work atomically) and returns the recorded op stream; the stream's
 * cost includes the dispatch-loop instructions themselves.  An OpList
 * with idlePoll set means nothing was found; the core still replays the
 * polling cost before asking again.
 */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    /**
     * Record the next handler invocation (or idle poll) for @p core_id
     * into @p out.  @p out is cleared first; reusing the caller's
     * buffer keeps the per-poll hot path allocation-free.
     */
    virtual void next(unsigned core_id, OpList &out) = 0;
};

} // namespace tengig

#endif // TENGIG_PROC_DISPATCHER_HH
