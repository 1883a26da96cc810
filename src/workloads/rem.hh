/**
 * @file
 * REM workload: DPDK-driven regular-expression matching, the paper's
 * flagship hardware-accelerated function (Figs. 4, 5, 7; Table 4).
 *
 * Host path: Hyperscan-style software DFA scan on the host cores.
 * SNIC path: two SNIC CPU cores stage DPDK packets into batched jobs
 * for the RXP engine (Sec. 3.4).
 */

#ifndef SNIC_WORKLOADS_REM_HH
#define SNIC_WORKLOADS_REM_HH

#include <memory>

#include "workloads/dfa_scan.hh"
#include "workloads/workload.hh"

namespace snic::workloads {

/** Packet mixes the paper drives REM with. */
enum class RemTraffic
{
    PcapMix,  ///< Fig. 4: mixed-size PCAP trace substitute
    Mtu,      ///< Fig. 5 / Table 4: fixed 1500 B packets
};

class Rem : public Workload
{
  public:
    Rem(alg::regex::RuleSetId ruleset, RemTraffic traffic);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

  private:
    alg::regex::RuleSetId _ruleset;
    RemTraffic _traffic;
    /** Shared across instances (setup_cache.hh). */
    std::shared_ptr<const ScanProfile> _profile;
};

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_REM_HH
