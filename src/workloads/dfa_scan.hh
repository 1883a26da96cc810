/**
 * @file
 * Shared machinery for the DFA-scanning workloads (Snort, REM).
 *
 * Both workloads compile a rule set to the real DFA and pre-sample
 * scan work over synthesized payloads. The raw DFA counters (one
 * table lookup per byte) are then *shaped* per platform:
 *
 *  - CPU platforms execute mostly cache-resident automaton steps;
 *    only the fraction of lookups that miss pays the dependent-load
 *    price. The miss rate grows with the modeled transition-table
 *    footprint relative to the platform cache — the Fig. 5 mechanism
 *    that makes file_image slow on the host while file_executable
 *    runs at 78 Gbps.
 *  - The hardware REM engine streams bytes at a fixed rate and is
 *    insensitive to rule-set complexity (KO4): it keeps only the
 *    byte count.
 *
 * Our synthetic rule sets have ~12-14 patterns versus the thousands
 * in the registered Snort snapshot the paper uses; ruleScale
 * extrapolates the table footprint accordingly (a documented
 * substitution, see DESIGN.md).
 */

#ifndef SNIC_WORKLOADS_DFA_SCAN_HH
#define SNIC_WORKLOADS_DFA_SCAN_HH

#include <vector>

#include "alg/regex/ruleset.hh"
#include "alg/workcount.hh"
#include "hw/server.hh"
#include "sim/random.hh"

namespace snic::workloads {

/** Footprint extrapolation factor (synthetic -> registered set).
 *  file_image carries a larger share of complex bounded-gap rules in
 *  the registered snapshot, hence the larger factor. */
double ruleScaleFor(alg::regex::RuleSetId id);

/**
 * Pre-sampled per-packet scan costs of a rule set. The compiled DFA
 * is needed only while sampling and is not kept.
 */
class ScanProfile
{
  public:
    /**
     * Compile @p id and sample @p samples payloads of each size in
     * @p sizes with @p match_probability.
     */
    ScanProfile(alg::regex::RuleSetId id,
                const std::vector<std::uint32_t> &sizes,
                double match_probability, std::size_t samples,
                sim::Random &rng);

    /** Raw (unshaped) scan counters for a packet of ~@p bytes. */
    const alg::WorkCounters &sampleFor(std::uint32_t bytes,
                                       sim::Random &rng) const;

    /** Extrapolated transition-table footprint in bytes. */
    double modeledTableBytes() const { return _modeledTableBytes; }

  private:
    double _modeledTableBytes;

    struct Bucket
    {
        std::uint32_t bytes;
        std::vector<alg::WorkCounters> samples;
    };
    std::vector<Bucket> _buckets;
};

/**
 * Shape raw DFA counters for @p platform (see file comment).
 */
alg::WorkCounters shapeScanWork(const alg::WorkCounters &raw,
                                hw::Platform platform,
                                double modeled_table_bytes);

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_DFA_SCAN_HH
