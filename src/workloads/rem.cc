/**
 * @file
 * REM workload implementation.
 */

#include "workloads/rem.hh"

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
remSpec(alg::regex::RuleSetId id, RemTraffic traffic)
{
    Spec s;
    s.id = "rem_" + shortName(id) +
           (traffic == RemTraffic::Mtu ? "_mtu" : "");
    s.family = "rem";
    s.configLabel = alg::regex::ruleSetName(id);
    s.stack = stack::StackKind::Dpdk;
    s.sizes = traffic == RemTraffic::Mtu
                  ? net::SizeDist::fixed(net::mtuBytes)
                  : net::SizeDist::pcapMix();
    s.supportsSnicCpu = false;  // Table 3: REM runs HC or SA
    s.supportsAccel = true;
    s.accel = hw::AccelKind::Rem;
    // Sec. 3.4: two SNIC CPU cores feed the accelerator.
    s.snicCores = 2;
    // The DOCA driver coalesces ~32 packets per RXP job: the engine
    // queue runs the Coalescing discipline, so the ~50 Gbps ceiling
    // and the ~25 us low-load floor emerge from batching instead of
    // being baked into per-request constants.
    s.accelBatch = hw::accelBatchDefaults(hw::AccelKind::Rem);
    return s;
}

} // anonymous namespace

Rem::Rem(alg::regex::RuleSetId ruleset, RemTraffic traffic)
    : Workload(remSpec(ruleset, traffic)),
      _ruleset(ruleset),
      _traffic(traffic)
{
}

void
Rem::setup(sim::Random &rng)
{
    const std::vector<std::uint32_t> sizes =
        _traffic == RemTraffic::Mtu
            ? std::vector<std::uint32_t>{net::mtuBytes}
            : std::vector<std::uint32_t>{64, 576, 1024, 1500};
    _profile = cachedSetup<ScanProfile>(id(), rng, [&](sim::Random &r) {
        return ScanProfile(_ruleset, sizes, /*match_probability=*/0.02,
                           /*samples=*/96, r);
    });
}

RequestPlan
Rem::plan(std::uint32_t request_bytes, hw::Platform platform,
          sim::Random &rng)
{
    RequestPlan p;
    if (platform == hw::Platform::SnicAccel) {
        // Staging on the SNIC CPU: rx-burst the packet into a job
        // buffer. The batched job descriptor itself is charged by
        // the engine's Coalescing discipline (Spec::accelBatch), not
        // amortized into this plan.
        p.cpuWork.branchyOps = 50;
        p.cpuWork.arithOps = 24;
        p.cpuWork.messages = 0;
        // The engine scans every byte (no early exit in hardware).
        p.accelWork.streamBytes = request_bytes;
        p.accelWork.messages = 1;
    } else {
        const auto &raw = _profile->sampleFor(request_bytes, rng);
        p.cpuWork = shapeScanWork(raw, platform,
                                  _profile->modeledTableBytes());
        // file_image's complex rules occasionally trigger expensive
        // software confirmation passes (Hyperscan fallback paths) —
        // the service-time variance behind the early p99 knee of
        // Fig. 5.
        if (_ruleset == alg::regex::RuleSetId::FileImage &&
            rng.chance(0.015)) {
            p.cpuWork.branchyOps *= 10;
            p.cpuWork.randomTouches *= 10;
        }
        p.cpuWork.messages = 1;
    }
    p.responseBytes = 0;  // matcher verdict stays on the server
    return p;
}

} // namespace snic::workloads
