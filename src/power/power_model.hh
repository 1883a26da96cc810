/**
 * @file
 * Component-level power model of the server and the SNIC.
 *
 * Calibration anchors (Sec. 4 / Fig. 6 / Table 5): server idle 252 W
 * (SNIC's 29 W included), server active adder up to ~150.6 W, SNIC
 * active adder up to ~5.4 W; per-workload server powers between
 * 254.5 W (SNIC REM, Table 4) and 343 W (host fio, Table 5).
 *
 * Instantaneous power is a function of the platforms' busy-worker
 * counts (with DPDK busy-polling cores pinned at full), DRAM/IO
 * traffic, and NIC throughput — so the power traces respond to load
 * exactly the way the BMC and Yocto-Watt rigs observe in the paper.
 */

#ifndef SNIC_POWER_POWER_MODEL_HH
#define SNIC_POWER_POWER_MODEL_HH

#include "hw/server.hh"

namespace snic::power {

/** Calibrated electrical parameters. */
struct PowerSpecs
{
    double serverIdleWatts = 252.0;  ///< whole box, SNIC included
    double snicIdleWatts = 29.0;     ///< the SNIC alone, idle

    /** One fully-busy host core (includes its cache slice). */
    double hostCoreActiveWatts = 12.0;
    /** Uncore/mesh adder at full chip activity. */
    double hostUncoreActiveWatts = 18.0;
    /** DRAM + PCIe activity per GB/s moved. */
    double dramWattsPerGBps = 2.1;

    /** One fully-busy A72 core. */
    double snicCoreActiveWatts = 0.42;
    /** One fully-busy accelerator engine. */
    double snicAccelActiveWatts = 0.60;
    /** NIC/eSwitch datapath per Gb/s forwarded. */
    double snicNicWattsPerGbps = 0.012;

    /** Share of SNIC power drawn from the 12 V PCIe pins (the rest
     *  from 3.3 V) — the two Yocto-Watt taps of Fig. 3. */
    double snicTwelveVoltShare = 0.92;
};

/**
 * Live power model attached to a ServerModel.
 */
class ServerPowerModel
{
  public:
    ServerPowerModel(const hw::ServerModel &server,
                     PowerSpecs specs = PowerSpecs());

    /** Instantaneous whole-server power (what the BMC sees), from the
     *  platforms' current utilization. It carries no NIC-traffic
     *  term: windowed readings (EnergyMeter) price NIC traffic from
     *  delivered bytes. */
    double serverWatts() const;

    /** Instantaneous SNIC power (what the Yocto-Watt rig sees); no
     *  NIC-traffic term, as for serverWatts(). */
    double snicWatts() const;

    /** SNIC power on one PCIe rail. */
    double snicRailWatts(bool twelve_volt) const;

    /**
     * Average power over a window given average utilizations —
     * used by the exact (integral-based) energy accounting.
     */
    double serverWattsAt(double host_util, double snic_cpu_util,
                         double accel_util, double nic_gbps) const;
    double snicWattsAt(double snic_cpu_util, double accel_util,
                       double nic_gbps) const;

    const PowerSpecs &specs() const { return _specs; }

  private:
    const hw::ServerModel &_server;
    PowerSpecs _specs;

    double hostUtilNow() const;
    double snicCpuUtilNow() const;
    double accelUtilNow() const;
};

} // namespace snic::power

#endif // SNIC_POWER_POWER_MODEL_HH
