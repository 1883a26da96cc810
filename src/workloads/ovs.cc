/**
 * @file
 * OvS workload implementation.
 */

#include "workloads/ovs.hh"

namespace snic::workloads {

namespace {

Spec
ovsSpec(double load)
{
    Spec s;
    s.id = load >= 0.99 ? "ovs_100" : "ovs_10";
    s.family = "ovs";
    s.configLabel = load >= 0.99 ? "100% load" : "10% load";
    s.stack = stack::StackKind::Dpdk;
    s.sizes = net::SizeDist::fixed(net::mtuBytes);
    s.supportsAccel = true;  // the eSwitch IS the accelerator here
    s.accel = hw::AccelKind::Rem;  // unused; data plane is eSwitch
    s.dataPlaneOffload = true;
    // Sec. 3.4: evaluated at 10% and 100% of the line rate.
    s.operatingLoadFactor = load >= 0.99 ? 0.95 : 0.10;
    return s;
}

} // anonymous namespace

Ovs::Ovs(double load_fraction)
    : Workload(ovsSpec(load_fraction))
{
}

void
Ovs::setup(sim::Random &rng)
{
    (void)rng;
}

RequestPlan
Ovs::plan(std::uint32_t request_bytes, hw::Platform platform,
          sim::Random &rng)
{
    (void)platform;
    RequestPlan p;
    if (rng.chance(upcallProbability)) {
        // Flow-table miss: ofproto classification + flow install on
        // the control-plane CPU.
        p.cpuWork.branchyOps = 3500;
        p.cpuWork.randomTouches = 25;
        p.cpuWork.kernelOps = 400;
    } else {
        // Megaflow hit in the eSwitch: the CPU never sees it; a tiny
        // residual accounts for statistics polling amortized over
        // packets.
        p.cpuWork.arithOps = 4;
    }
    // No per-packet message dispatch: offloaded packets never cross
    // the CPU's request path.
    p.responseBytes = request_bytes;  // forwarded at line rate
    return p;
}

} // namespace snic::workloads
