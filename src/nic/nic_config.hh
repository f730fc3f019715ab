/**
 * @file
 * Top-level NIC configuration (the knobs of Figs. 7/8 and Tables 3-6).
 */

#ifndef TENGIG_NIC_NIC_CONFIG_HH
#define TENGIG_NIC_NIC_CONFIG_HH

#include <vector>

#include "fault/fault.hh"
#include "firmware/fw_state.hh"
#include "net/frame.hh"
#include "traffic/traffic_profile.hh"
#include "vnic/vf_config.hh"

namespace tengig {

struct NicConfig
{
    /// @name Computation and memory architecture (Fig. 6)
    /// @{
    unsigned cores = 6;
    double cpuMhz = 200.0;          //!< cores + scratchpad + crossbar
    unsigned scratchpadBanks = 4;
    std::size_t scratchpadBytes = 256 * 1024;
    std::size_t icacheBytes = 8 * 1024;
    unsigned icacheAssoc = 2;
    unsigned icacheLineBytes = 32;
    double memBusMhz = 500.0;       //!< internal bus + GDDR SDRAM
    std::size_t sdramBytes = 8 * 1024 * 1024;
    unsigned dmaFifoDepth = 64;
    unsigned macTxFifoDepth = 64;
    /// @}

    /// @name Firmware organization
    /// @{
    FwConfig firmware;
    bool taskLevelFirmware = false; //!< event-register baseline
    /// @}

    /**
     * Deterministic fault injection (src/fault).  Disabled by default
     * (all rates zero, watchdog off): every fault hook is then
     * structurally absent and runs are bit-identical to a build without
     * the subsystem.  Enabling any site also enables the graceful-
     * degradation machinery (MAC validation drops, DMA retry/drop,
     * doorbell retry, poison skips) and registers the "fault" stat
     * subtree.
     */
    FaultPlan faults;

    /// @name Workload
    /// @{
    unsigned txPayloadBytes = udpMaxPayloadBytes;
    unsigned rxPayloadBytes = udpMaxPayloadBytes;
    double rxOfferedRate = 1.0;     //!< fraction of line rate
    unsigned sendRingFrames = 1024;
    unsigned recvPoolBuffers = 1024;

    /**
     * Multi-flow workloads (src/traffic).  When a profile is enabled
     * it replaces the fixed-size knob for its direction: rxTraffic
     * drives the receive MAC through a TrafficEngine instead of the
     * single-flow FrameSource, txTraffic makes the host driver post
     * mixed-size flow-tagged send frames from a TxSchedule, and the
     * corresponding validator becomes a per-flow FlowSink.
     */
    TrafficProfile rxTraffic;
    TrafficProfile txTraffic;

    /**
     * When nonzero, meter host send-descriptor posting to this
     * fraction of 10 Gb/s line rate (measured in wire time) instead
     * of keeping the send ring backlogged.  Requires txTraffic; the
     * transmit wire then carries the profile's intended offered load
     * rather than saturating -- fleets that must recover from fabric
     * faults need this headroom, because retransmissions into a
     * wire-rate stream can only ratchet the switch egress FIFO.
     */
    double txPaceRate = 0.0;
    /// @}

    /**
     * Scale-out fleet participation (src/fleet, DESIGN.md §15).  When
     * set, this NIC's wire is connected to an external peer (the fleet
     * switch) instead of being a closed loop: frames may arrive that
     * no local generator produced, so the receive direction always
     * validates per-flow (lossy contract), and with no local rxTraffic
     * configured the controller installs an idle generator instead of
     * the legacy fixed-size FrameSource.  The transmit stream is still
     * validated locally (lossless, per-flow) and additionally handed
     * to the wire tap (setWireTap) for forwarding.  Off by default:
     * single-NIC runs are bit-identical to a build without the fleet
     * subsystem.
     */
    bool externalWire = false;

    /**
     * SR-IOV-style virtualization (src/vnic, DESIGN.md §13).  Each
     * entry is one virtual function with its own traffic profiles,
     * DRR weight, rate contracts, and tenant-private fault plan; the
     * VnicMux arbitrates them over the shared datapath.  A vnic run
     * owns the workload and fault configuration, so rxTraffic /
     * txTraffic / faults must stay at their defaults.  Empty (the
     * default) means the legacy single-function NIC with every vnic
     * hook structurally absent and runs bit-identical to a build
     * without the subsystem.
     */
    std::vector<VfConfig> vfs;
};

} // namespace tengig

#endif // TENGIG_NIC_NIC_CONFIG_HH
