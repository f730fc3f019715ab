/**
 * @file
 * Fleet runner: M NIC instances, one deterministic parallel run.
 *
 * FleetRunner owns M fully independent NicController instances (each
 * with its own EventQueue, memories, cores, and seeded workload
 * streams) and advances them in bounded-lag sync windows:
 *
 *   for each window [T, T+W]:
 *     parallel: every instance runs its queue to T+W   (any thread)
 *     barrier
 *     serial:   captured transmit frames cross the switch, arrivals
 *               are scheduled into destination queues   (coordinator)
 *
 * Exactness argument (DESIGN.md §15): instances share no mutable
 * state, so within a window each one's event stream depends only on
 * its own queue -- including previously injected arrivals.  Cross-
 * instance influence exists only through the switch pass, which runs
 * single-threaded over the captures sorted by (sentTick, srcPort,
 * captureSeq) -- a total order fixed by simulated time, not by thread
 * scheduling.  The fabric latency L >= W guarantees every computed
 * arrival lands at or after the next window's start, so no instance
 * ever needed a peer's frame mid-window.  Hence per-instance results,
 * stat trees, and wire/inject hashes are byte-identical whether the
 * fleet runs on 1 thread or N.
 */

#ifndef TENGIG_FLEET_FLEET_HH
#define TENGIG_FLEET_FLEET_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/fleet_config.hh"
#include "fleet/health.hh"
#include "fleet/reliable.hh"
#include "fleet/switch.hh"
#include "nic/controller.hh"
#include "obs/json.hh"
#include "obs/stat_registry.hh"

namespace tengig {

/** Results of one fleet run. */
struct FleetResults
{
    /** Per-instance measured-window results, index = port. */
    std::vector<NicResults> nic;

    /// @name Determinism fingerprints (whole run, not just measured)
    /// FNV-1a over every frame at the instance's transmit wire /
    /// every frame injected from the switch, folding in the tick,
    /// length, flow, and sequence.  Equal hashes across thread counts
    /// is the fleet determinism contract.
    /// @{
    std::vector<std::uint64_t> wireHash;
    std::vector<std::uint64_t> injectHash;
    /// @}

    /// @name Aggregate throughput over the measured window
    /// @{
    double aggTxGbps = 0.0;
    double aggRxGbps = 0.0;
    double aggTotalGbps = 0.0;
    std::uint64_t errors = 0; //!< summed validation errors
    /// @}

    /// @name Switch accounting (whole run)
    /// @{
    std::uint64_t framesForwarded = 0;
    std::uint64_t framesDropped = 0;   //!< at full egress FIFOs
    std::uint64_t injectRejected = 0;  //!< arrivals the dst MAC refused
    double switchLatencyMeanUs = 0.0;
    double switchLatencyP99Us = 0.0;
    /// @}

    /// @name Host-simulator performance
    /// @{
    std::uint64_t eventsExecuted = 0; //!< summed across instances
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t windows = 0;        //!< barrier count
    /** Peak number of workers observed simultaneously inside
     *  instance event loops (CI asserts > 1 for threaded runs). */
    unsigned maxConcurrentWorkers = 0;
    /// @}

    /// @name Fabric fault-domain accounting (whole run; all zero when
    /// chaos is disabled, except the ledger fields marked otherwise)
    /// @{
    /** Frames offered to the fabric, including retransmissions.
     *  Nonzero on any forwarding run. */
    std::uint64_t fabricOffered = 0;
    std::uint64_t fabricLinkDownKills = 0; //!< lost to flap down windows
    std::uint64_t fabricDrops = 0;         //!< injected mid-fabric drops
    std::uint64_t fabricCorrupt = 0;       //!< injected corruptions
    std::uint64_t fabricAckLost = 0;       //!< injected ack losses
    std::uint64_t linkDownTicks = 0;       //!< summed over links
    std::uint64_t nodeStallEpisodes = 0;   //!< induced core freezes
    std::uint64_t heartbeatMisses = 0;     //!< health-monitor detections
    std::uint64_t corruptDiscarded = 0;    //!< CRC discards at link ports

    /** Delivery-ledger residue: offered frames not accounted for by
     *  forwarded + switch drops + injected fabric losses.  Always
     *  exactly 0; the benches exit nonzero otherwise. */
    std::uint64_t unaccountedLoss = 0;

    /** Forwarded arrivals scheduled but not yet executed when the run
     *  ended (sent in the final window; not lost, just in flight). */
    std::uint64_t arrivalsInFlight = 0;

    /** Cross-node frames actually injected into destination NICs. */
    std::uint64_t crossDelivered = 0;
    /// @}

    /// @name Reliable delivery (all zero when disabled)
    /// @{
    std::uint64_t reliableAcked = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t backoffTicks = 0;
    /** Exact injected==recovered accounting, per fault class. */
    std::array<std::uint64_t, fabricFaultClassCount> recoveredByClass{};
    std::uint64_t recoveredTotal = 0;
    std::uint64_t dupSuppressed = 0;
    std::uint64_t rxRefusals = 0; //!< MAC-refused injections (backpressure)
    std::uint64_t rxRetries = 0;  //!< receiver re-injection attempts
    std::uint64_t rxBuffered = 0; //!< frames parked in reorder buffers
    std::uint64_t reliablePending = 0; //!< tracked, not yet acked
    /** Pending frames first sent before the storm ended -- the
     *  post-storm recovery contract requires this to be 0. */
    std::uint64_t reliablePendingStormEra = 0;
    std::uint64_t reliableOwedOutstanding = 0; //!< lost, not yet repaid
    /// @}
};

class FleetRunner
{
  public:
    explicit FleetRunner(const FleetConfig &cfg);
    ~FleetRunner();

    FleetRunner(const FleetRunner &) = delete;
    FleetRunner &operator=(const FleetRunner &) = delete;

    /** Run warmup + measured window; callable once per runner. */
    FleetResults run();

    unsigned size() const { return static_cast<unsigned>(nodes.size()); }
    NicController &node(unsigned i) { return *nodes[i]->nic; }

    /** Switch + fleet-level stats ("switch.*"). */
    const obs::StatGroup &fleetStats() const { return fleetRoot; }

    /**
     * Structured fleet report (tengig-fleet-v1): run parameters,
     * aggregate metrics, the switch stat subtree, and each instance's
     * full stat tree under nic.<port>.
     */
    obs::json::Value reportJson(const FleetResults &res) const;

  private:
    /** One captured transmit-wire frame awaiting the switch pass. */
    struct Capture
    {
        Tick sent;
        std::uint64_t seq; //!< per-source capture order
        FrameData frame;
    };

    struct Node
    {
        std::unique_ptr<NicController> nic;
        std::vector<Capture> outbox; //!< drained at each barrier
        std::uint64_t captureSeq = 0;
        std::uint64_t wireHash;
        std::uint64_t injectHash;
        std::uint64_t injectDropped = 0;   //!< dst MAC refused arrival
        std::uint64_t injectDelivered = 0; //!< dst MAC accepted arrival
        std::uint64_t corruptDiscards = 0; //!< link-port CRC discards
        std::uint64_t receiptsRun = 0;     //!< receipt events executed
        unsigned dstPort = 0;              //!< fixed by topology
        /** Reliable-delivery receive half; null when disabled. */
        std::unique_ptr<ReliableReceiver> rrx;
    };

    void exchange(Tick now, FleetResults &res);

    /**
     * One delivery attempt: run the fabric fault gauntlet, forward
     * through the switch, schedule the destination receipt, and (when
     * reliable delivery is on) resolve the attempt's outcome on record
     * @p rec_id -- an owed fault class or an in-flight ack.  @p rec_id
     * 0 means untracked (reliable delivery off).
     */
    void offerFrame(unsigned src, Tick sent, FrameData &&frame, Tick now,
                    std::uint64_t rec_id);

    unsigned resolveThreads() const;

    FleetConfig cfg;
    std::vector<std::unique_ptr<Node>> nodes;
    std::unique_ptr<FleetSwitch> fabric; //!< null when topology None
    /// @name Fault-domain components (null when their config is off,
    /// so default fleets carry no chaos state at all -- structural
    /// absence, same discipline as src/fault)
    /// @{
    std::unique_ptr<FabricFaultInjector> chaos;
    std::unique_ptr<ReliableSender> relay;
    std::unique_ptr<FleetHealthMonitor> health;
    /// @}
    Tick rto = 0;               //!< resolved retransmit timeout
    std::uint64_t offered = 0;  //!< fabric offers incl. retransmits
    obs::StatGroup fleetRoot;
    std::vector<std::pair<unsigned, Capture *>> mergeScratch;
    bool ran = false;
};

} // namespace tengig

#endif // TENGIG_FLEET_FLEET_HH
