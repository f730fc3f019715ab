#include "fault/watchdog.hh"

#include <cstdio>

#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace tengig {

FirmwareWatchdog::FirmwareWatchdog(EventQueue &eq_, Tick period_ticks)
    : eq(eq_), period(period_ticks)
{
    panic_if(period == 0, "[watchdog] zero period");
    event.init(eq, [this] { check(); }, EventPriority::Stats);
}

void
FirmwareWatchdog::addCore(std::function<Tick()> last_retire)
{
    lastRetire.push_back(std::move(last_retire));
    lastSeen.push_back(0);
    inStall.push_back(0);
}

void
FirmwareWatchdog::arm()
{
    armed = true;
    for (std::size_t i = 0; i < lastRetire.size(); ++i) {
        lastSeen[i] = lastRetire[i]();
        inStall[i] = 0;
    }
    if (!event.scheduled())
        event.scheduleIn(period);
}

void
FirmwareWatchdog::disarm()
{
    armed = false;
    event.cancel();
}

void
FirmwareWatchdog::check()
{
    if (!armed)
        return;
    ++checks;
    bool busy = !busyFn || busyFn();
    for (std::size_t i = 0; i < lastRetire.size(); ++i) {
        Tick retired = lastRetire[i]();
        if (retired != lastSeen[i] || !busy) {
            lastSeen[i] = retired;
            inStall[i] = 0;
            continue;
        }
        if (!inStall[i]) {
            // New stall episode: count it and dump the pipeline once.
            inStall[i] = 1;
            ++stalls;
            std::fprintf(stderr,
                         "[watchdog] core %zu stalled: no invocation "
                         "retired since tick %llu (now %llu)\n",
                         i, static_cast<unsigned long long>(retired),
                         static_cast<unsigned long long>(eq.curTick()));
            if (dumpFn)
                std::fprintf(stderr, "%s", dumpFn().c_str());
        }
    }
    if (!event.scheduled())
        event.scheduleIn(period);
}

void
FirmwareWatchdog::registerStats(obs::StatGroup &g) const
{
    g.add("stalls", stalls, "watchdog-detected core stall episodes");
    g.add("checks", checks, "watchdog sampling passes");
}

void
FirmwareWatchdog::resetStats()
{
    stalls.reset();
    checks.reset();
}

void
LivenessMonitor::check(bool queue_empty, bool pipeline_busy,
                       const std::function<std::string()> &report)
{
    ++checks;
    fatal_if(queue_empty && pipeline_busy,
             "[liveness] event queue drained with frames in flight\n",
             report ? report() : std::string());
}

void
LivenessMonitor::registerStats(obs::StatGroup &g) const
{
    g.add("checks", checks, "liveness boundary checks");
}

} // namespace tengig
