/**
 * @file
 * The full server: host CPU + BlueField-2 SNIC (CPU complex, three
 * accelerators, eSwitch) wired together — the device under test of
 * the whole study.
 */

#ifndef SNIC_HW_SERVER_HH
#define SNIC_HW_SERVER_HH

#include <memory>

#include "hw/accelerator.hh"
#include "hw/cpu_platform.hh"
#include "hw/eswitch.hh"
#include "hw/pcie.hh"
#include "sim/simulation.hh"

namespace snic::hw {

/** Which platform executes the function (Table 3's HC/SC/SA). */
enum class Platform
{
    HostCpu,    ///< HC
    SnicCpu,    ///< SC
    SnicAccel,  ///< SA
};

/** Display name ("host", "snic_cpu", "snic_accel"). */
const char *platformName(Platform p);

/**
 * Where one service-chain stage executes: the host CPU pool, the
 * SNIC CPU pool, or a named fixed-function engine (whose staging
 * cores are the SNIC CPUs). The engine field is meaningful only when
 * kind == Platform::SnicAccel.
 */
struct Placement
{
    Platform kind = Platform::HostCpu;
    AccelKind engine = AccelKind::Rem;

    /** Host side of the PCIe bus? (SNIC CPUs and all engines share
     *  the SNIC side.) */
    bool onHostSide() const { return kind == Platform::HostCpu; }
};

/** Whether a payload handed from @p from to @p to crosses PCIe. */
inline bool
crossesPcie(const Placement &from, const Placement &to)
{
    return from.onHostSide() != to.onHostSide();
}

/**
 * Rack-level stage location: which rack member executes the stage,
 * and where inside that member. Consecutive chain stages on the same
 * member pay local transfer costs (PCIe crossing or same-side hop);
 * stages on different members pay the ToR forwarding latency plus
 * wire serialization through that member's ingress link.
 */
struct RackPlacement
{
    unsigned member = 0;
    Placement local;
};

/**
 * The composed server model.
 */
class ServerModel
{
  public:
    /**
     * @param host_cores cores the host platform exposes (8 default,
     *        10 for the KO3 scaling experiment).
     * @param snic_cores SNIC CPU cores available to the function
     *        (8 default; 1-2 for staging-only configurations).
     */
    explicit ServerModel(sim::Simulation &sim, unsigned host_cores = 8,
                         unsigned snic_cores = 8);

    ExecutionPlatform &hostCpu() { return *_hostCpu; }
    ExecutionPlatform &snicCpu() { return *_snicCpu; }
    ExecutionPlatform &accel(AccelKind kind);
    ESwitch &eswitch() { return *_eswitch; }
    PcieLink &pcie() { return *_pcie; }

    const ExecutionPlatform &hostCpu() const { return *_hostCpu; }
    const ExecutionPlatform &snicCpu() const { return *_snicCpu; }
    const ExecutionPlatform &accel(AccelKind kind) const;

    /** The CPU platform for @p p (SnicAccel staging uses SNIC CPU). */
    ExecutionPlatform &cpuFor(Platform p);

    /**
     * Delay for handing a @p bytes payload from stage placement
     * @p from to @p to. A PCIe crossing books real time on the shared
     * PcieLink (latency + serialization behind every other transfer);
     * a same-side hop is a fixed descriptor handoff plus a
     * DDR-bandwidth-limited copy and books nothing on the bus.
     */
    sim::Tick transferTicks(const Placement &from, const Placement &to,
                            std::uint32_t bytes);

    /**
     * Power-gate the box (fleet scale-down hook). Gating remembers
     * and clears the CPU platforms' busy-polling flags so a parked
     * DPDK deployment stops burning its PMD poll floor while asleep;
     * ungating restores them. Idempotent; gating performs no queue
     * or schedule work — the fleet drains members before gating.
     */
    void setPowerGated(bool gated);

    sim::Simulation &sim() { return _sim; }

  private:
    sim::Simulation &_sim;
    bool _gated = false;
    /** Busy-polling flags saved across a power gate (host, snic). */
    bool _savedBusyPoll[2] = {false, false};
    std::unique_ptr<PcieLink> _pcie;
    std::unique_ptr<ExecutionPlatform> _hostCpu;
    std::unique_ptr<ExecutionPlatform> _snicCpu;
    std::unique_ptr<ExecutionPlatform> _remAccel;
    std::unique_ptr<ExecutionPlatform> _pkaAccel;
    std::unique_ptr<ExecutionPlatform> _compAccel;
    std::unique_ptr<ESwitch> _eswitch;
};

} // namespace snic::hw

#endif // SNIC_HW_SERVER_HH
