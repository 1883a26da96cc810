/**
 * @file
 * SLO-aware autoscaling policies for rack members.
 *
 * The paper prices fleets at steady peak load; what a diurnal day
 * actually costs depends on how many members are powered when. The
 * Autoscaler is the pure decision kernel: the fleet feeds it one
 * observation per trace bin (served utilization, bin p99) and it
 * answers with the member count it wants — the fleet executes the
 * wakes and drains. Keeping the policy free of simulation state makes
 * its decision sequence a deterministic function of the observation
 * sequence, which is what the golden scale-event tests pin.
 *
 * Three policies ride the same interface:
 *  - Static: provision for the configured maximum, never move.
 *  - ReactiveUtilization: thresholds on served utilization.
 *  - P99Feedback: scale up when the bin p99 blows the SLO budget
 *    (or utilization crosses the up-threshold — the pre-wake that
 *    keeps a ramp from buying one violated bin per member), down
 *    only when the tail is comfortably inside the budget AND the
 *    survivors would stay below the up-threshold — the guard that
 *    keeps the policy from oscillating across the budget boundary.
 *
 * Flap damping is two-layered: a pressure streak (hysteresisBins
 * consecutive bins must agree before any move) and a cooldown
 * (cooldownBins of quiet after a scale-down; scale-ups are exempt —
 * an SLO emergency must not wait out a timer).
 */

#ifndef SNIC_CORE_AUTOSCALER_HH
#define SNIC_CORE_AUTOSCALER_HH

#include <cstdint>

namespace snic::core {

/** The policy deciding member counts. */
enum class AutoscalerKind
{
    Static,              ///< fixed at maxMembers
    ReactiveUtilization, ///< utilization thresholds
    P99Feedback,         ///< SLO-tail feedback with hysteresis
};

/** Policy parameters. Validated fatally by the Autoscaler ctor. */
struct AutoscalerConfig
{
    AutoscalerKind kind = AutoscalerKind::Static;
    /** Member-count bounds (min >= 1; the dispatch set must never
     *  empty). */
    unsigned minMembers = 1;
    unsigned maxMembers = 1;
    /** Utilization thresholds (fraction of awake capacity served).
     *  Scale up above upUtil, down below downUtil; the gap between
     *  them is the utilization hysteresis band. */
    double upUtil = 0.70;
    double downUtil = 0.30;
    /** SLO budget for the P99Feedback policy. */
    double p99BudgetUs = 100.0;
    /** Scale-down eligibility: the bin p99 must sit below this
     *  fraction of the budget. */
    double p99LowFraction = 0.5;
    /** P99Feedback burst headroom: utilization is multiplied by this
     *  before comparing against upUtil, for the pre-wake and for the
     *  survivor guard. >1 keeps enough members awake that a microburst
     *  of that amplitude still lands inside the SLO — the difference
     *  between saving energy and giving the SLO back. 1 = none. */
    double burstHeadroom = 1.0;
    /** Consecutive pressured bins required before a move (0 is
     *  normalized to 1 — act on the first pressured bin). */
    unsigned hysteresisBins = 2;
    /** Quiet bins after a scale-down before the next move. */
    unsigned cooldownBins = 3;
};

/** One trace bin's signals, as the fleet observed them. */
struct AutoscalerObservation
{
    /** Served throughput over the awake members' capacity. */
    double utilization = 0.0;
    /** Bin p99 latency (meaningful only when completed > 0). */
    double p99Us = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t generated = 0;
};

/**
 * The decision kernel. observe() per bin; the return value is the
 * desired member count after that bin.
 */
class Autoscaler
{
  public:
    /** @param start initial member count (within [min, max]). */
    Autoscaler(const AutoscalerConfig &config, unsigned start);

    const AutoscalerConfig &config() const { return _config; }
    unsigned current() const { return _current; }

    /** Feed one bin; returns the desired member count. */
    unsigned observe(const AutoscalerObservation &obs);

  private:
    AutoscalerConfig _config;
    unsigned _current;
    unsigned _highStreak = 0;
    unsigned _lowStreak = 0;
    unsigned _cooldown = 0;

    bool pressureHigh(const AutoscalerObservation &obs) const;
    bool pressureLow(const AutoscalerObservation &obs) const;
};

} // namespace snic::core

#endif // SNIC_CORE_AUTOSCALER_HH
