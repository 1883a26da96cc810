/**
 * @file
 * Snort workload: UDP intrusion detection over the three rule sets
 * (Sec. 3.4: file_image / file_flash / file_executable rules against
 * iperf UDP traffic).
 */

#ifndef SNIC_WORKLOADS_SNORT_HH
#define SNIC_WORKLOADS_SNORT_HH

#include <memory>

#include "workloads/dfa_scan.hh"
#include "workloads/workload.hh"

namespace snic::workloads {

class Snort : public Workload
{
  public:
    explicit Snort(alg::regex::RuleSetId ruleset);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

  private:
    alg::regex::RuleSetId _ruleset;
    /** Shared across instances (setup_cache.hh). */
    std::shared_ptr<const ScanProfile> _profile;
};

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_SNORT_HH
