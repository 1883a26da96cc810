/**
 * @file
 * Offload advisor (Strategy 2, Sec. 5.3): predict, per workload
 * configuration, which execution platform meets an SLO at the best
 * energy efficiency — the Clara-style what-if tool the paper calls
 * for, built on the same cost models the testbed measures.
 */

#ifndef SNIC_CORE_ADVISOR_HH
#define SNIC_CORE_ADVISOR_HH

#include <string>
#include <vector>

#include "core/testbed.hh"

namespace snic::core {

/** The SLO the advisor must satisfy. */
struct SloConstraint
{
    /** p99 latency bound in microseconds (<= 0: unconstrained). */
    double p99UsMax = 0.0;
    /** Minimum throughput in Gbps (<= 0: unconstrained). */
    double minGbps = 0.0;
};

/** Analytic prediction for one platform. */
struct PlatformPrediction
{
    hw::Platform platform = hw::Platform::HostCpu;
    bool supported = false;
    double capacityGbps = 0.0;
    double capacityRps = 0.0;
    double p99UsAtLoad = 0.0;       ///< at 90 % load (queueing est.)
    double serverWatts = 0.0;       ///< at that operating point
    double rpsPerJoule = 0.0;
    bool meetsSlo = false;
};

/** The advisor's verdict. */
struct Advice
{
    std::string workloadId;
    hw::Platform recommended = hw::Platform::HostCpu;
    bool sloFeasible = false;
    std::string rationale;
    std::vector<PlatformPrediction> predictions;
};

/**
 * Advise on where to run @p workload_id under @p slo.
 */
Advice adviseOffload(const std::string &workload_id,
                     const SloConstraint &slo,
                     std::uint64_t seed = 1);

// --- Chain placement (service chains, core/chain.hh) ---

/** The Meili-style placement key: three normalized components,
 *  lower is better. Latency-blind by construction — that is the
 *  baseline's documented weakness. */
struct PlacementKey
{
    /** Data-movement locality: PCIe crossings between consecutive
     *  functions. */
    double location = 0.0;
    /** Bottleneck pressure: per-request demand on the most loaded
     *  resource, normalized by that resource's capacity (the inverse
     *  of the placement's analytic capacity). */
    double bandwidth = 0.0;
    /** Cost-weighted resource consumption: host CPU time is the
     *  expensive resource; SNIC CPU and engine time are cheap. */
    double resource = 0.0;
    /** Weighted combination over the candidate set (filled by the
     *  advisor after cross-candidate normalization). */
    double combined = 0.0;
};

/** One candidate placement of a chain on one server. */
struct ChainPlacementCandidate
{
    /** Per-function execution platform (engine kind comes from the
     *  function's own Spec::accel). */
    std::vector<hw::Platform> where;
    PlacementKey key;
    /** Analytic per-server capacity (the heuristic's view). */
    double analyticGbps = 0.0;

    // DES-backed evaluation (filled for candidates the advisor
    // simulated; the heuristic never sees these).
    bool evaluated = false;
    double capacityGbps = 0.0;
    double capacityRps = 0.0;
    double p99Us = 0.0;            ///< measured at the load point
    double serverWatts = 0.0;      ///< measured at the load point
    unsigned serversForDemand = 0; ///< fleet size for demandGbps
    double tco5yrUsd = 0.0;        ///< fleet 5-year TCO
    bool meetsSlo = false;
};

/** Chain advisor knobs (the rack search adds maxMembers). */
struct ChainAdvisorOptions
{
    std::uint64_t seed = 1;
    /** Operating point as a fraction of measured capacity, in
     *  (0, 1]. */
    double loadFactor = 0.7;
    /** Fleet demand the TCO sizing must serve (request Gbps, > 0). */
    double demandGbps = 100.0;
    /** Candidates the search may simulate (>= 1). The heuristic pick
     *  and the all-host and all-SNIC-CPU anchors always run, even
     *  past the budget (desBudget = 1 can evaluate 3); the rest of
     *  the budget goes down the key ranking. The search never stops
     *  early. */
    int desBudget = 8;
    /** Samples per DES measurement window (small: the advisor runs
     *  many candidates). */
    std::uint64_t targetSamples = 4000;
};

/** The chain advisor's verdict. */
struct ChainAdvice
{
    std::vector<std::string> functions;
    /** Every feasible placement, sorted by heuristic key (best
     *  first). */
    std::vector<ChainPlacementCandidate> candidates;
    /** Index into candidates of the Meili-key baseline's pick: the
     *  first candidate whose analytic Gbps clears the SLO's minGbps
     *  (0 when none does). */
    int heuristicPick = -1;
    /** Index into candidates of the DES-backed pick. */
    int desPick = -1;
    bool sloFeasible = false;
    std::string rationale;
};

/**
 * Compute the raw (un-normalized) Meili-style key components for
 * placing @p profiles at @p where on one server: rackPlacementKey
 * with every function on member 0. Exposed for tests and benches.
 */
PlacementKey placementKey(
    const std::vector<workloads::FunctionProfile> &profiles,
    const std::vector<hw::Platform> &where);

/**
 * Advise on placing the function chain @p function_ids on one server
 * under @p slo: adviseRackChainPlacement with maxMembers = 1, its
 * results copied into the per-server types (serverWatts is the one
 * member's rackWatts).
 */
ChainAdvice adviseChainPlacement(
    const std::vector<std::string> &function_ids,
    const SloConstraint &slo, const ChainAdvisorOptions &opts = {});

// --- Rack-level chain placement (rack-spanning chains, §13) ---

/** One candidate rack-level placement: per-function platform AND
 *  rack member. Single-member candidates (all member 0) are exactly
 *  the per-server search space of adviseChainPlacement. */
struct RackChainPlacementCandidate
{
    std::vector<hw::Platform> where;
    /** Per-function rack member, restricted-growth form (member 0
     *  first; a new member may only follow all lower ones). */
    std::vector<unsigned> member;
    /** Distinct members the placement occupies (max(member) + 1). */
    unsigned membersUsed = 1;
    PlacementKey key;
    double analyticGbps = 0.0;

    // DES-backed evaluation (single-member candidates run on a
    // Testbed, spanning ones on a Rack).
    bool evaluated = false;
    double capacityGbps = 0.0;   ///< per rack-unit request Gbps
    double capacityRps = 0.0;
    double p99Us = 0.0;
    double rackWatts = 0.0;      ///< all occupied members, summed
    /** Rack units, then servers (= units x membersUsed), sized for
     *  demandGbps at the operating point. */
    unsigned unitsForDemand = 0;
    unsigned serversForDemand = 0;
    double tco5yrUsd = 0.0;
    bool meetsSlo = false;
};

/** Rack chain advisor knobs. */
struct RackChainAdvisorOptions : ChainAdvisorOptions
{
    /** Rack members the search may spread a chain across (>= 1). A
     *  chain whose first function is not network-driven stays on
     *  member 0. */
    unsigned maxMembers = 2;
};

/** The rack chain advisor's verdict. */
struct RackChainAdvice
{
    std::vector<std::string> functions;
    /** Every enumerated placement, heuristic-key order (best
     *  first). */
    std::vector<RackChainPlacementCandidate> candidates;
    int heuristicPick = -1;
    int desPick = -1;
    bool sloFeasible = false;
    std::string rationale;
    /** Search-telemetry: placements enumerated, and how many were
     *  DES-eligible after the key-rank cap (the best 32). */
    std::size_t enumerated = 0;
    std::size_t desEligible = 0;
};

/**
 * Rack-level Meili-style key: resources are accounted per member
 * (the bandwidth bottleneck is the most loaded resource on any ONE
 * member), cross-member hops charge the destination member's ingress
 * wire, and the location component adds two PCIe-crossing
 * equivalents per hop. An all-zero member vector is placementKey.
 */
PlacementKey rackPlacementKey(
    const std::vector<workloads::FunctionProfile> &profiles,
    const std::vector<hw::Platform> &where,
    const std::vector<unsigned> &member);

/**
 * The chain-placement search: place @p function_ids across up to
 * opts.maxMembers rack members under @p slo. Enumerate every Table
 * 3-valid platform x member placement (members in restricted-growth
 * form — relabeling-symmetric duplicates are never generated), rank
 * with rackPlacementKey (the Meili-style heuristic baseline), then
 * spend the DES budget on the best 32 by key — single-member
 * candidates on a Testbed, spanning ones on a Rack — to find the
 * placement that meets the SLO at the lowest fleet TCO. The SLO's
 * minGbps is per rack *unit* (one ingress); TCO prices every
 * occupied member, SNIC only on members hosting SNIC-placed stages.
 * Fatal on maxMembers == 0, desBudget < 1, loadFactor outside
 * (0, 1] or demandGbps <= 0.
 */
RackChainAdvice adviseRackChainPlacement(
    const std::vector<std::string> &function_ids,
    const SloConstraint &slo,
    const RackChainAdvisorOptions &opts = {});

} // namespace snic::core

#endif // SNIC_CORE_ADVISOR_HH
