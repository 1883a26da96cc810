/**
 * @file
 * OvS workload: Open vSwitch with the data plane offloaded to the
 * eSwitch; the CPU (host or SNIC) runs only the control plane
 * (Sec. 3.4: MTU packets at 10 % and 100 % of line rate).
 */

#ifndef SNIC_WORKLOADS_OVS_HH
#define SNIC_WORKLOADS_OVS_HH

#include "workloads/workload.hh"

namespace snic::workloads {

class Ovs : public Workload
{
  public:
    /** @param load_fraction 0.10 or 1.00 of line rate. */
    explicit Ovs(double load_fraction);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

    /** Probability a packet misses the offloaded flow table and is
     *  punted to the control-plane CPU. */
    static constexpr double upcallProbability = 0.002;
};

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_OVS_HH
