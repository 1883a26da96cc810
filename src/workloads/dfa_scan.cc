/**
 * @file
 * ScanProfile and work shaping.
 */

#include "workloads/dfa_scan.hh"

#include <algorithm>
#include <cmath>

#include "hw/specs.hh"
#include "sim/logging.hh"

namespace snic::workloads {

double
ruleScaleFor(alg::regex::RuleSetId id)
{
    return id == alg::regex::RuleSetId::FileImage ? 600.0 : 350.0;
}

ScanProfile::ScanProfile(alg::regex::RuleSetId id,
                         const std::vector<std::uint32_t> &sizes,
                         double match_probability, std::size_t samples,
                         sim::Random &rng)
{
    // Allocate what the profile keeps before the DFA, which dies on
    // return, so the kept bytes do not split the heap it frees.
    _buckets.reserve(sizes.size());
    for (std::uint32_t size : sizes) {
        _buckets.push_back(Bucket{size, {}});
        _buckets.back().samples.reserve(samples);
    }

    const alg::regex::RuleSet rules = alg::regex::makeRuleSet(id);
    const alg::regex::CompiledRuleSet compiled(rules);
    _modeledTableBytes =
        static_cast<double>(compiled.tableBytes()) * ruleScaleFor(id);

    for (Bucket &bucket : _buckets) {
        for (std::size_t i = 0; i < samples; ++i) {
            const auto payload = alg::regex::synthesizePayload(
                rules, bucket.bytes, match_probability, rng);
            alg::WorkCounters w;
            const bool hit = compiled.dfa().matchesAny(
                payload.data(), payload.size(), w);
            // An IDS confirms and logs hits (alert formatting).
            if (hit) {
                w.branchyOps += 400;
                w.streamBytes += 128;
            }
            bucket.samples.push_back(w);
        }
    }
}

const alg::WorkCounters &
ScanProfile::sampleFor(std::uint32_t bytes, sim::Random &rng) const
{
    if (_buckets.empty())
        sim::panic("ScanProfile: no samples");
    // Nearest size bucket.
    const Bucket *best = &_buckets.front();
    for (const Bucket &b : _buckets) {
        const auto d1 = b.bytes > bytes ? b.bytes - bytes
                                        : bytes - b.bytes;
        const auto d0 = best->bytes > bytes ? best->bytes - bytes
                                            : bytes - best->bytes;
        if (d1 < d0)
            best = &b;
    }
    const std::size_t idx = static_cast<std::size_t>(
        rng.uniformInt(0, best->samples.size() - 1));
    return best->samples[idx];
}

alg::WorkCounters
shapeScanWork(const alg::WorkCounters &raw, hw::Platform platform,
              double modeled_table_bytes)
{
    alg::WorkCounters w;
    if (platform == hw::Platform::SnicAccel) {
        // The hardware engine streams the payload; complexity-blind.
        w.streamBytes = raw.streamBytes;
        return w;
    }

    const double cache = platform == hw::Platform::HostCpu
                             ? hw::specs::hostLlcBytes
                             : hw::specs::snicL3Bytes;
    // Fraction of automaton steps that miss the cache: zero while
    // the table fits, ramping as it spills.
    const double ratio = modeled_table_bytes / cache;
    const double miss_rate =
        std::clamp(0.03 * (ratio - 0.75), 0.0, 0.10);

    const double steps = static_cast<double>(raw.randomTouches);
    // Cache-resident automaton step: ~60 % branch-resolution cost,
    // ~40 % plain ALU/load-hit cost.
    w.branchyOps =
        raw.branchyOps - raw.randomTouches +
        static_cast<std::uint64_t>(0.6 * steps);
    w.arithOps = raw.arithOps +
                 static_cast<std::uint64_t>(0.4 * steps);
    w.randomTouches =
        static_cast<std::uint64_t>(miss_rate * steps);
    w.streamBytes = raw.streamBytes;
    w.cryptoBlocks = raw.cryptoBlocks;
    w.hashBlocks = raw.hashBlocks;
    w.bigMulOps = raw.bigMulOps;
    w.kernelOps = raw.kernelOps;
    w.messages = raw.messages;
    return w;
}

} // namespace snic::workloads
