/**
 * @file
 * Exact (integral-based) energy accounting over a measurement window.
 *
 * Where the sensor models reproduce the measurement *instruments*,
 * the EnergyMeter reproduces the measurement *quantity* exactly: it
 * snapshots the platforms' busy-time integrals and the datapath byte
 * counters at window start, and at window end converts average
 * utilizations into average power via the power model. Energy
 * efficiency is throughput divided by system-wide energy (Fig. 6).
 */

#ifndef SNIC_POWER_ENERGY_HH
#define SNIC_POWER_ENERGY_HH

#include "power/power_model.hh"

namespace snic::power {

/**
 * Exact integral of a piecewise-constant power draw.
 *
 * The fleet's power-state machinery (power/power_state.hh) drives a
 * member through sleep/wake/active levels; this accumulator turns
 * those transitions into joules with no approximation: every
 * setPower() closes the open segment at the current draw before
 * switching, and a window reset mid-segment splits the segment
 * exactly — the part before the reset stays in the old window, the
 * part after accrues into the new one (the straddler pattern that
 * previously bit the window counters in the reset-path sweeps).
 *
 * All read accessors take `now` so an open segment is always included
 * up to the asked-for instant; nothing is mutated by reads.
 */
class EnergyIntegral
{
  public:
    /** Start integrating at @p start with an initial draw. */
    explicit EnergyIntegral(double watts = 0.0, sim::Tick start = 0)
        : _watts(watts), _since(start), _windowStart(start)
    {
    }

    /** Close the open segment at @p now and switch the draw. */
    void
    setPower(sim::Tick now, double watts)
    {
        advanceTo(now);
        _watts = watts;
    }

    /** Close the open segment and zero the *window* accumulator
     *  (total joules keep accruing). The open draw continues into
     *  the new window. */
    void
    resetWindow(sim::Tick now)
    {
        advanceTo(now);
        _windowJoules = 0.0;
        _windowStart = now;
    }

    /** Joules accrued since the last resetWindow(), including the
     *  open segment up to @p now. */
    double
    windowJoules(sim::Tick now) const
    {
        return _windowJoules + openJoules(now);
    }

    /** Joules accrued since construction, open segment included. */
    double
    totalJoules(sim::Tick now) const
    {
        return _totalJoules + openJoules(now);
    }

    /** Tick the current window opened at. */
    sim::Tick windowStart() const { return _windowStart; }

  private:
    double _watts;
    sim::Tick _since;
    sim::Tick _windowStart;
    double _windowJoules = 0.0;
    double _totalJoules = 0.0;

    double
    openJoules(sim::Tick now) const
    {
        return now > _since
                   ? _watts * sim::ticksToSec(now - _since)
                   : 0.0;
    }

    void
    advanceTo(sim::Tick now)
    {
        const double j = openJoules(now);
        _windowJoules += j;
        _totalJoules += j;
        if (now > _since)
            _since = now;
    }
};

/** Result of one metered window. */
struct EnergyReading
{
    double seconds = 0.0;
    double hostUtil = 0.0;
    double snicCpuUtil = 0.0;
    double accelUtil = 0.0;
    double nicGbps = 0.0;
    double avgServerWatts = 0.0;
    double avgSnicWatts = 0.0;
    double serverJoules = 0.0;

    /** Active power above the idle floor. */
    double activeServerWatts(const PowerSpecs &specs) const
    {
        return avgServerWatts - specs.serverIdleWatts;
    }
};

/**
 * Meters one window of server activity.
 */
class EnergyMeter
{
  public:
    EnergyMeter(const hw::ServerModel &server,
                const ServerPowerModel &power);

    /** Snapshot the window start (call when measurement begins). */
    void begin();

    /**
     * Close the window.
     *
     * @param bytes_delivered application-level bytes moved during the
     *        window (defines nicGbps; take it from the Link/eSwitch
     *        counters or the workload's response accounting).
     */
    EnergyReading end(double bytes_delivered) const;

  private:
    const hw::ServerModel &_server;
    const ServerPowerModel &_power;

    sim::Tick _t0 = 0;
    double _hostBusy0 = 0.0;
    double _snicBusy0 = 0.0;
    double _remBusy0 = 0.0;
    double _pkaBusy0 = 0.0;
    double _compBusy0 = 0.0;

    /** Busy-polling-aware average utilization over the window. */
    static double utilOver(const hw::ExecutionPlatform &p,
                           double busy0, double seconds);
};

} // namespace snic::power

#endif // SNIC_POWER_ENERGY_HH
