/**
 * @file
 * Workload registry: construct any Table 3 configuration by id and
 * enumerate the Fig. 4 line-up.
 */

#ifndef SNIC_WORKLOADS_REGISTRY_HH
#define SNIC_WORKLOADS_REGISTRY_HH

#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace snic::workloads {

/**
 * Create a workload by configuration id (e.g. "redis_a", "rem_img",
 * "crypto_sha1", "micro_udp_64"). Fatal on unknown ids.
 */
WorkloadPtr makeWorkload(const std::string &id);

/** All configuration ids, grouped as in Fig. 4. */
struct Fig4Lineup
{
    /** Software-only functions (SNIC CPU vs host CPU). */
    std::vector<std::string> softwareOnly;
    /** Hardware-accelerated functions (SNIC accel vs host CPU). */
    std::vector<std::string> hardwareAccelerated;
};

/** The Fig. 4 x-axis. */
Fig4Lineup fig4Lineup();

/** Every known configuration id. */
std::vector<std::string> allWorkloadIds();

/**
 * Per-function service-demand metadata: the mean request-plan cost
 * of one configuration priced on each platform Table 3 lists for it.
 * This is what a chain-placement search consumes — demand per stage
 * without assembling a testbed per candidate.
 */
struct FunctionProfile
{
    std::string id;
    bool supportsHost = false;
    bool supportsSnicCpu = false;
    bool supportsAccel = false;
    /** The engine serving accel placements (meaningful only when
     *  supportsAccel). */
    hw::AccelKind accel = hw::AccelKind::Rem;
    /** How requests reach the function (a rack spreads only
     *  network-driven chains across members). */
    Drive drive = Drive::Network;
    double meanRequestBytes = 0.0;
    double meanResponseBytes = 0.0;
    /** Mean CPU service demand per request (ns) for CPU placements. */
    double hostCpuNs = 0.0;
    double snicCpuNs = 0.0;
    /** Engine placement: SNIC-CPU staging demand + engine demand. */
    double accelStagingNs = 0.0;
    double engineNs = 0.0;

    /** CPU-side demand (ns/request) of placing this function at
     *  @p where (staging demand for engine placements). */
    double cpuNsAt(hw::Platform where) const;
};

/**
 * Profile one configuration by sampling @p samples request plans per
 * supported platform (deterministic given @p seed). Fatal on unknown
 * ids.
 */
FunctionProfile functionProfile(const std::string &id,
                                std::uint64_t seed = 1,
                                int samples = 64);

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_REGISTRY_HH
