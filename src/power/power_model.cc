/**
 * @file
 * ServerPowerModel implementation.
 */

#include "power/power_model.hh"

#include <algorithm>

#include "hw/specs.hh"

namespace snic::power {

namespace {

/** Instantaneous utilization of a platform, honouring busy polling:
 *  at least the PMD poll cores burn even when idle. */
double
utilOf(const hw::ExecutionPlatform &p)
{
    double util = static_cast<double>(p.busyWorkers()) /
                  static_cast<double>(p.numWorkers());
    if (p.busyPolling()) {
        const double floor =
            std::min<double>(hw::specs::dpdkPollCores,
                             p.numWorkers()) /
            static_cast<double>(p.numWorkers());
        util = std::max(util, floor);
    }
    return util;
}

} // anonymous namespace

ServerPowerModel::ServerPowerModel(const hw::ServerModel &server,
                                   PowerSpecs specs)
    : _server(server), _specs(specs)
{
}

double
ServerPowerModel::hostUtilNow() const
{
    return utilOf(_server.hostCpu());
}

double
ServerPowerModel::snicCpuUtilNow() const
{
    return utilOf(_server.snicCpu());
}

double
ServerPowerModel::accelUtilNow() const
{
    // Aggregate over the three engines (each contributes its share).
    return (utilOf(_server.accel(hw::AccelKind::Rem)) +
            utilOf(_server.accel(hw::AccelKind::Pka)) +
            utilOf(_server.accel(hw::AccelKind::Compression))) /
           3.0;
}

double
ServerPowerModel::snicWattsAt(double snic_cpu_util, double accel_util,
                              double nic_gbps) const
{
    const double cores =
        snic_cpu_util *
        static_cast<double>(_server.snicCpu().numWorkers()) *
        _specs.snicCoreActiveWatts;
    const double accel =
        accel_util * 3.0 * _specs.snicAccelActiveWatts;
    const double nic = nic_gbps * _specs.snicNicWattsPerGbps;
    return _specs.snicIdleWatts + cores + accel + nic;
}

double
ServerPowerModel::serverWattsAt(double host_util, double snic_cpu_util,
                                double accel_util,
                                double nic_gbps) const
{
    const double host_cores =
        host_util *
        static_cast<double>(_server.hostCpu().numWorkers()) *
        _specs.hostCoreActiveWatts;
    const double uncore = host_util * _specs.hostUncoreActiveWatts;
    // DRAM/PCIe activity follows total data motion; approximate with
    // the NIC rate (every processed byte crosses memory at least
    // once) plus host-side amplification when the host works.
    const double gbytes_per_sec = nic_gbps / 8.0;
    const double dram = gbytes_per_sec * _specs.dramWattsPerGBps *
                        (host_util > 0.01 ? 1.7 : 0.6);
    const double snic_active =
        snicWattsAt(snic_cpu_util, accel_util, nic_gbps) -
        _specs.snicIdleWatts;
    return _specs.serverIdleWatts + host_cores + uncore + dram +
           snic_active;
}

double
ServerPowerModel::serverWatts() const
{
    return serverWattsAt(hostUtilNow(), snicCpuUtilNow(),
                         accelUtilNow(), 0.0);
}

double
ServerPowerModel::snicWatts() const
{
    return snicWattsAt(snicCpuUtilNow(), accelUtilNow(), 0.0);
}

double
ServerPowerModel::snicRailWatts(bool twelve_volt) const
{
    const double total = snicWatts();
    return twelve_volt ? total * _specs.snicTwelveVoltShare
                       : total * (1.0 - _specs.snicTwelveVoltShare);
}

} // namespace snic::power
