/**
 * @file
 * Capacity search implementation.
 */

#include "core/throughput_search.hh"

#include <algorithm>

#include "core/rack.hh"
#include "hw/specs.hh"

namespace snic::core {

sim::Tick
windowFor(double rps, const ExperimentOptions &opts)
{
    if (rps <= 0.0)
        return opts.minWindow;
    const double secs =
        static_cast<double>(opts.targetSamples) / rps;
    const auto window = sim::secToTicks(secs);
    return std::clamp(window, opts.minWindow, opts.maxWindow);
}

namespace {

/**
 * The escalate-until-saturated search: offer 1.35x the analytic
 * estimate (or opts.initialOfferedGbps), capped at @p wire_cap, and
 * escalate 1.7x per window until the achieved rate falls clearly
 * below the offer or the wire itself is the limit. @p measure runs
 * one window at (offered Gbps, window ticks).
 */
template <typename Measure>
Capacity
searchCapacity(double est_rps, double mean_bytes, double wire_cap,
               const ExperimentOptions &opts, Measure measure)
{
    const double est_gbps = est_rps * mean_bytes * 8.0 / 1e9;
    double offered = std::min(opts.initialOfferedGbps > 0.0
                                  ? opts.initialOfferedGbps
                                  : est_gbps * 1.35,
                              wire_cap);
    Capacity best;

    for (int attempt = 0; attempt < 5; ++attempt) {
        const Measurement m = measure(offered, windowFor(est_rps, opts));
        ++best.attempts;
        best.gbps = std::max(best.gbps, m.goodputGbps);
        best.requestGbps = std::max(best.requestGbps, m.achievedGbps);
        best.rps = std::max(best.rps, m.achievedRps);
        // Saturated (offered clearly exceeds achieved) or the wire
        // itself is the limit: done.
        if (m.achievedGbps < 0.93 * offered ||
            offered >= wire_cap * 0.999) {
            best.saturated = true;
            break;
        }
        offered = std::min(offered * 1.7, wire_cap);
    }
    return best;
}

} // anonymous namespace

Capacity
findCapacity(Testbed &testbed, const ExperimentOptions &opts)
{
    return searchCapacity(
        testbed.estimateCapacityRps(),
        testbed.workload().spec().sizes.meanBytes(),
        hw::specs::lineRateGbps, opts,
        [&](double offered, sim::Tick window) {
            return testbed.measure(offered, opts.warmup, window);
        });
}

Capacity
findCapacity(Rack &rack, const ExperimentOptions &opts)
{
    return searchCapacity(
        rack.estimateCapacityRps(), rack.meanRequestBytes(),
        rack.servers() * hw::specs::lineRateGbps, opts,
        [&](double offered, sim::Tick window) {
            return rack.measure(offered, opts.warmup, window).aggregate;
        });
}

} // namespace snic::core
