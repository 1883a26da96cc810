/**
 * @file
 * Autoscaler implementation.
 */

#include "core/autoscaler.hh"

#include "sim/logging.hh"

namespace snic::core {

Autoscaler::Autoscaler(const AutoscalerConfig &config, unsigned start)
    : _config(config), _current(start)
{
    if (_config.minMembers == 0)
        sim::fatal("Autoscaler: minMembers must be >= 1 (the dispatch "
                   "set must never empty)");
    if (_config.minMembers > _config.maxMembers) {
        sim::fatal("Autoscaler: minMembers %u > maxMembers %u",
                   _config.minMembers, _config.maxMembers);
    }
    if (start < _config.minMembers || start > _config.maxMembers) {
        sim::fatal("Autoscaler: start %u outside [%u, %u]", start,
                   _config.minMembers, _config.maxMembers);
    }
    if (_config.kind == AutoscalerKind::ReactiveUtilization &&
        _config.downUtil >= _config.upUtil) {
        sim::fatal("Autoscaler: downUtil %.2f >= upUtil %.2f leaves "
                   "no hysteresis band", _config.downUtil,
                   _config.upUtil);
    }
    if (_config.kind == AutoscalerKind::P99Feedback &&
        _config.p99BudgetUs <= 0.0) {
        sim::fatal("Autoscaler: p99 budget must be positive");
    }
    if (_config.hysteresisBins == 0)
        _config.hysteresisBins = 1;
}

bool
Autoscaler::pressureHigh(const AutoscalerObservation &obs) const
{
    switch (_config.kind) {
      case AutoscalerKind::Static:
        return false;
      case AutoscalerKind::ReactiveUtilization:
        return obs.utilization > _config.upUtil;
      case AutoscalerKind::P99Feedback:
        // A bin that generated traffic but completed nothing is a
        // total outage — the strongest possible tail signal.
        if (obs.generated > 0 && obs.completed == 0)
            return true;
        if (obs.completed > 0 && obs.p99Us > _config.p99BudgetUs)
            return true;
        // Headroom pre-wake: tails explode only near saturation, so
        // waiting for the p99 itself guarantees one violated bin per
        // ramp. Crossing the (burst-adjusted) utilization threshold
        // wakes the next member while the tail is still healthy.
        return obs.utilization * _config.burstHeadroom >
               _config.upUtil;
    }
    return false;
}

bool
Autoscaler::pressureLow(const AutoscalerObservation &obs) const
{
    switch (_config.kind) {
      case AutoscalerKind::Static:
        return false;
      case AutoscalerKind::ReactiveUtilization:
        return obs.utilization < _config.downUtil;
      case AutoscalerKind::P99Feedback: {
        if (obs.completed == 0 ||
            obs.p99Us >= _config.p99LowFraction * _config.p99BudgetUs)
            return false;
        // Survivor guard: only shrink when the remaining members
        // would absorb the (burst-adjusted) load with a margin below
        // the wake threshold; without the margin the next ramp bin
        // wakes the member right back, and without the guard at all
        // the policy ping-pongs across the budget boundary.
        if (_current <= 1)
            return false;
        const double after = obs.utilization * _config.burstHeadroom *
                             static_cast<double>(_current) /
                             static_cast<double>(_current - 1);
        return after < 0.9 * _config.upUtil;
      }
    }
    return false;
}

unsigned
Autoscaler::observe(const AutoscalerObservation &obs)
{
    if (_config.kind == AutoscalerKind::Static) {
        _current = _config.maxMembers;
        return _current;
    }

    const bool high = pressureHigh(obs);
    const bool low = pressureLow(obs);
    _highStreak = high ? _highStreak + 1 : 0;
    _lowStreak = low ? _lowStreak + 1 : 0;

    if (_highStreak >= _config.hysteresisBins &&
        _current < _config.maxMembers) {
        // Scale-ups are cooldown-exempt: an SLO emergency must not
        // wait out the damping timer.
        ++_current;
        _highStreak = 0;
        _lowStreak = 0;
        return _current;
    }

    if (_cooldown > 0) {
        --_cooldown;
        return _current;
    }

    if (_lowStreak >= _config.hysteresisBins &&
        _current > _config.minMembers) {
        --_current;
        _highStreak = 0;
        _lowStreak = 0;
        _cooldown = _config.cooldownBins;
    }
    return _current;
}

} // namespace snic::core
