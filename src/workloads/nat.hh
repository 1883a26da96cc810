/**
 * @file
 * NAT workload: UDP network address translation with 10 K or 1 M
 * randomly generated entries (Sec. 3.4).
 */

#ifndef SNIC_WORKLOADS_NAT_HH
#define SNIC_WORKLOADS_NAT_HH

#include <memory>
#include <vector>

#include "alg/nat/nat_table.hh"
#include "workloads/workload.hh"

namespace snic::workloads {

class Nat : public Workload
{
  public:
    /** @param entries 10'000 or 1'000'000. */
    explicit Nat(std::size_t entries);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

    std::size_t entries() const { return _entries; }

  private:
    /** The populated table and its internal endpoints; plan() only
     *  reads them, so every instance set up with the same id and RNG
     *  state shares one (setup_cache.hh). */
    struct Flows
    {
        alg::nat::NatTable table;
        std::vector<alg::nat::Endpoint> internals;
    };

    std::size_t _entries;
    std::shared_ptr<const Flows> _flows;
};

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_NAT_HH
