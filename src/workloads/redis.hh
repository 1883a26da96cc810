/**
 * @file
 * Redis workload: TCP in-memory KVS driven by YCSB mixes (Sec. 3.4:
 * workloads A/B/C over 30 K records of 1 KB, zipfian keys).
 */

#ifndef SNIC_WORKLOADS_REDIS_HH
#define SNIC_WORKLOADS_REDIS_HH

#include <memory>

#include "alg/kv/kv_store.hh"
#include "workloads/workload.hh"

namespace snic::workloads {

/** YCSB core workload mixes used by the paper. */
enum class YcsbMix
{
    A,  ///< 50 % read / 50 % update
    B,  ///< 95 % read / 5 % update
    C,  ///< 100 % read
};

class Redis : public Workload
{
  public:
    explicit Redis(YcsbMix mix);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

    static constexpr std::size_t records = 30000;
    static constexpr std::size_t valueBytes = 1024;

  private:
    YcsbMix _mix;
    double _readFraction;
    std::unique_ptr<alg::kv::KvStore> _store;
    std::unique_ptr<sim::ZipfSampler> _keys;
};

/** Mix display name ("workload_a"...). */
const char *ycsbMixName(YcsbMix mix);

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_REDIS_HH
