/**
 * @file
 * Snort workload implementation.
 */

#include "workloads/snort.hh"

#include "workloads/setup_cache.hh"

namespace snic::workloads {

namespace {

std::string
shortName(alg::regex::RuleSetId id)
{
    switch (id) {
      case alg::regex::RuleSetId::FileImage:
        return "img";
      case alg::regex::RuleSetId::FileFlash:
        return "fla";
      case alg::regex::RuleSetId::FileExecutable:
        return "exe";
    }
    return "?";
}

Spec
snortSpec(alg::regex::RuleSetId id)
{
    Spec s;
    s.id = "snort_" + shortName(id);
    s.family = "snort";
    s.configLabel = alg::regex::ruleSetName(id);
    s.stack = stack::StackKind::Udp;
    s.sizes = net::SizeDist::fixed(net::kbPacketBytes);
    return s;
}

} // anonymous namespace

Snort::Snort(alg::regex::RuleSetId ruleset)
    : Workload(snortSpec(ruleset)), _ruleset(ruleset)
{
}

void
Snort::setup(sim::Random &rng)
{
    _profile = cachedSetup<ScanProfile>(id(), rng, [this](sim::Random &r) {
        return ScanProfile(_ruleset, {64, 1024, 1500},
                           /*match_probability=*/0.03, /*samples=*/96,
                           r);
    });
}

RequestPlan
Snort::plan(std::uint32_t request_bytes, hw::Platform platform,
            sim::Random &rng)
{
    RequestPlan p;
    const auto &raw = _profile->sampleFor(request_bytes, rng);
    p.cpuWork = shapeScanWork(raw, platform,
                              _profile->modeledTableBytes());
    // libpcap capture + decoder overhead per packet.
    p.cpuWork.branchyOps += 250;
    p.cpuWork.kernelOps += 150;
    p.cpuWork.messages += 1;
    p.responseBytes = 0;  // IDS sink: no response traffic
    return p;
}

} // namespace snic::workloads
