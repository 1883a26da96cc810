/**
 * @file
 * Service chains: a request path composed of N workload functions,
 * each bound to a Placement (host CPU pool, SNIC CPU pool, or a
 * fixed-function engine), with explicit inter-stage transfers that
 * pay real PCIe round-trips when consecutive functions sit on
 * opposite sides of the bus and cheap shared-memory hops otherwise.
 *
 * The ChainSpec is what a Testbed assembles; ChainStageRuntime is
 * the assembled form the pipeline stages consume. A 1-function chain
 * is the paper's original single-function datapath — the Testbed
 * builds exactly the seed's 5-stage pipeline for it, so every
 * existing measurement is a chain measurement already.
 */

#ifndef SNIC_CORE_CHAIN_HH
#define SNIC_CORE_CHAIN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/server.hh"
#include "workloads/workload.hh"

namespace snic::net {
class Link;
class TorSwitch;
} // namespace snic::net

namespace snic::core {

/** One function of a chain: which workload, and where it runs. The
 *  member index names a rack member; standalone Testbeds only accept
 *  member 0 (cross-member placement needs a Rack to supply the ToR
 *  path — assembly is fatal otherwise). */
struct FunctionStageSpec
{
    std::string workloadId;
    hw::Platform where = hw::Platform::HostCpu;
    unsigned member = 0;
};

/** An ordered chain of functions a request flows through. */
struct ChainSpec
{
    std::vector<FunctionStageSpec> stages;

    /** The single-function chain equivalent to the seed testbed. */
    static ChainSpec
    single(std::string workload_id, hw::Platform where)
    {
        ChainSpec c;
        c.stages.push_back({std::move(workload_id), where});
        return c;
    }

    /** Builder convenience: chain.then("rem_kb", SnicAccel)...
     *  The member index places the stage on a rack member (0 = the
     *  ingress member, the only value standalone Testbeds accept). */
    ChainSpec &
    then(std::string workload_id, hw::Platform where, unsigned member = 0)
    {
        stages.push_back({std::move(workload_id), where, member});
        return *this;
    }

    bool empty() const { return stages.empty(); }
    std::size_t size() const { return stages.size(); }

    /** Any stage placed off member 0? */
    bool
    usesMembers() const
    {
        for (const FunctionStageSpec &fs : stages)
            if (fs.member != 0)
                return true;
        return false;
    }

    /** Consecutive-stage pairs that land on different members. */
    unsigned
    memberHops() const
    {
        unsigned hops = 0;
        for (std::size_t k = 1; k < stages.size(); ++k)
            if (stages[k].member != stages[k - 1].member)
                ++hops;
        return hops;
    }
};

/**
 * One assembled chain stage: the workload instance (owned by the
 * Testbed), its resolved placement (engine kind comes from the
 * workload's Spec::accel), and a unique per-instance name — repeated
 * functions get distinct "#k" suffixes so StageStats, attributeTail
 * and correlateRingFull buckets never merge two instances.
 */
struct ChainStageRuntime
{
    workloads::Workload *workload = nullptr;
    hw::Placement placement;
    std::string name;
    /** Rack member hosting the stage (0 in standalone testbeds). */
    unsigned member = 0;
    /** Executing member's hardware; null means the assembling
     *  testbed's own server (the single-member fast path). */
    hw::ServerModel *server = nullptr;
    /** For a stage entered via a cross-member hop: the destination
     *  member's ingress wire and the rack's ToR. Null otherwise. */
    net::Link *ingressWire = nullptr;
    net::TorSwitch *tor = nullptr;
};

/**
 * Plan every stage of the chain for one request, front to back, on
 * one RNG stream. Stage k's input bytes are stage k-1's response
 * bytes; filter-style functions that emit no response (responseBytes
 * == 0) pass their input payload through unchanged.
 */
std::vector<workloads::RequestPlan>
planChain(const std::vector<ChainStageRuntime> &chain,
          std::uint32_t request_bytes, sim::Random &rng);

/** planChain into a caller-owned vector (cleared first, capacity
 *  retained) — the pooled-request path replans allocation-free. */
void planChainInto(const std::vector<ChainStageRuntime> &chain,
                   std::uint32_t request_bytes, sim::Random &rng,
                   std::vector<workloads::RequestPlan> &out);

/** PCIe crossings a request pays between consecutive placements. */
unsigned pcieCrossings(const std::vector<hw::Placement> &placements);

/** Same, over an assembled chain. */
unsigned chainPcieCrossings(const std::vector<ChainStageRuntime> &chain);

} // namespace snic::core

#endif // SNIC_CORE_CHAIN_HH
