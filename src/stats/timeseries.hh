/**
 * @file
 * Fixed-interval time series, used for power traces and rate plots.
 */

#ifndef SNIC_STATS_TIMESERIES_HH
#define SNIC_STATS_TIMESERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace snic::stats {

/**
 * Accumulates samples into equal-width time bins.
 *
 * Two usage patterns:
 *  - add(t, v): accumulate v into the bin containing t (e.g. bytes
 *    received, for a rate plot);
 *  - observe(t, v): record a point sample, averaged per bin (e.g. a
 *    power reading).
 */
class TimeSeries
{
  public:
    /**
     * @param bin_width width of each bin, in ticks.
     */
    explicit TimeSeries(sim::Tick bin_width);

    /** Accumulate @p value into the bin containing @p t. */
    void add(sim::Tick t, double value);

    /** Record a point sample to be averaged within its bin. */
    void observe(sim::Tick t, double value);

    /** Number of bins touched so far (index of last + 1). */
    std::size_t numBins() const { return _sums.size(); }

    /** Sum accumulated in bin @p i (0 for untouched bins). */
    double sum(std::size_t i) const;

    /** Mean of observed samples in bin @p i (0 if none). */
    double mean(std::size_t i) const;

    /** Bin start time. */
    sim::Tick binStart(std::size_t i) const
    {
        return static_cast<sim::Tick>(i) * _binWidth;
    }

    /**
     * Sums interpreted as a rate: sum(i) / bin seconds.
     */
    double rate(std::size_t i) const;

    /** Render as "t_seconds value" CSV lines using rate(). */
    std::string dumpRates() const;

  private:
    sim::Tick _binWidth;
    std::vector<double> _sums;
    std::vector<std::uint64_t> _counts;

    std::size_t binFor(sim::Tick t);
};

} // namespace snic::stats

#endif // SNIC_STATS_TIMESERIES_HH
