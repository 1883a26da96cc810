/**
 * @file
 * Chain planning and placement-geometry helpers.
 */

#include "core/chain.hh"

namespace snic::core {

std::vector<workloads::RequestPlan>
planChain(const std::vector<ChainStageRuntime> &chain,
          std::uint32_t request_bytes, sim::Random &rng)
{
    std::vector<workloads::RequestPlan> plans;
    planChainInto(chain, request_bytes, rng, plans);
    return plans;
}

void
planChainInto(const std::vector<ChainStageRuntime> &chain,
              std::uint32_t request_bytes, sim::Random &rng,
              std::vector<workloads::RequestPlan> &out)
{
    out.clear();
    out.reserve(chain.size());
    std::uint32_t in_bytes = request_bytes;
    for (const ChainStageRuntime &stage : chain) {
        workloads::RequestPlan plan =
            stage.workload->plan(in_bytes, stage.placement.kind, rng);
        plan.requestBytes = in_bytes;
        // Sinks/filters (no response payload) hand their input
        // through to the next function.
        if (plan.responseBytes > 0)
            in_bytes = plan.responseBytes;
        out.push_back(std::move(plan));
    }
}

unsigned
pcieCrossings(const std::vector<hw::Placement> &placements)
{
    unsigned crossings = 0;
    for (std::size_t i = 1; i < placements.size(); ++i) {
        if (hw::crossesPcie(placements[i - 1], placements[i]))
            ++crossings;
    }
    return crossings;
}

unsigned
chainPcieCrossings(const std::vector<ChainStageRuntime> &chain)
{
    std::vector<hw::Placement> placements;
    placements.reserve(chain.size());
    for (const ChainStageRuntime &stage : chain)
        placements.push_back(stage.placement);
    return pcieCrossings(placements);
}

} // namespace snic::core
