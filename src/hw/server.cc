/**
 * @file
 * ServerModel implementation.
 */

#include "hw/server.hh"

#include "hw/specs.hh"
#include "sim/logging.hh"

namespace snic::hw {

const char *
platformName(Platform p)
{
    switch (p) {
      case Platform::HostCpu:
        return "host";
      case Platform::SnicCpu:
        return "snic_cpu";
      case Platform::SnicAccel:
        return "snic_accel";
    }
    sim::panic("platformName: bad platform");
}

ServerModel::ServerModel(sim::Simulation &sim, unsigned host_cores,
                         unsigned snic_cores)
    : _sim(sim),
      _pcie(std::make_unique<PcieLink>(sim, "pcie", specs::pcieGBps,
                                       specs::pcieLatencyNs)),
      _hostCpu(makeHostCpu(sim, host_cores)),
      _snicCpu(makeSnicCpu(sim, snic_cores)),
      _remAccel(makeAccelerator(sim, AccelKind::Rem)),
      _pkaAccel(makeAccelerator(sim, AccelKind::Pka)),
      _compAccel(makeAccelerator(sim, AccelKind::Compression)),
      _eswitch(std::make_unique<ESwitch>(sim, "eswitch", *_pcie))
{
}

ExecutionPlatform &
ServerModel::accel(AccelKind kind)
{
    switch (kind) {
      case AccelKind::Rem:
        return *_remAccel;
      case AccelKind::Pka:
        return *_pkaAccel;
      case AccelKind::Compression:
        return *_compAccel;
    }
    sim::panic("ServerModel::accel: bad kind");
}

const ExecutionPlatform &
ServerModel::accel(AccelKind kind) const
{
    return const_cast<ServerModel *>(this)->accel(kind);
}

void
ServerModel::setPowerGated(bool gated)
{
    if (gated == _gated)
        return;
    _gated = gated;
    if (gated) {
        _savedBusyPoll[0] = _hostCpu->busyPolling();
        _savedBusyPoll[1] = _snicCpu->busyPolling();
        _hostCpu->setBusyPolling(false);
        _snicCpu->setBusyPolling(false);
    } else {
        _hostCpu->setBusyPolling(_savedBusyPoll[0]);
        _snicCpu->setBusyPolling(_savedBusyPoll[1]);
    }
}

sim::Tick
ServerModel::transferTicks(const Placement &from, const Placement &to,
                           std::uint32_t bytes)
{
    if (crossesPcie(from, to))
        return _pcie->transferDelay(bytes);
    const bool host_side = from.onHostSide();
    const double hop_ns = host_side ? specs::hostHopNs : specs::snicHopNs;
    const double gbps = host_side ? specs::hostHopGBps : specs::snicHopGBps;
    const double copy_ns = double(bytes) / gbps;  // GB/s == bytes/ns
    return sim::nsToTicks(hop_ns + copy_ns);
}

ExecutionPlatform &
ServerModel::cpuFor(Platform p)
{
    switch (p) {
      case Platform::HostCpu:
        return *_hostCpu;
      case Platform::SnicCpu:
      case Platform::SnicAccel:
        return *_snicCpu;
    }
    sim::panic("ServerModel::cpuFor: bad platform");
}

} // namespace snic::hw
