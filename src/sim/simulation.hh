/**
 * @file
 * Simulation context: one timeline, one RNG, shared by all components.
 */

#ifndef SNIC_SIM_SIMULATION_HH
#define SNIC_SIM_SIMULATION_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace snic::sim {

/**
 * Owns the event queue and the root RNG for one experiment run.
 *
 * Components hold a reference to the Simulation they belong to and
 * schedule their work through it. Constructing a fresh Simulation
 * (with a fresh seed) gives an independent, reproducible run.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    EventQueue &events() { return _events; }
    Random &rng() { return _rng; }

    /** Current simulated time. */
    Tick now() const { return _events.curTick(); }

    /** Schedule @p fn at absolute tick @p when. The optional @p label
     *  (usually the owning component's name) is kept with the event
     *  and printed by the scheduler's fatal paths. */
    template <typename F>
    void
    at(Tick when, F &&fn, const char *label = nullptr)
    {
        _events.schedule(when, std::forward<F>(fn), label);
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    after(Tick delay, F &&fn, const char *label = nullptr)
    {
        _events.scheduleIn(delay, std::forward<F>(fn), label);
    }

    /** Advance simulated time to @p limit, firing due events. */
    std::uint64_t runUntil(Tick limit) { return _events.runUntil(limit); }

    /** Run until the event queue drains. */
    std::uint64_t runAll() { return _events.runAll(); }

  private:
    EventQueue _events;
    Random _rng;
};

/**
 * Convenience base for named simulation components.
 */
class Component
{
  public:
    Component(Simulation &sim, std::string name)
        : _sim(sim), _name(std::move(name))
    {}

    virtual ~Component() = default;

    Simulation &sim() { return _sim; }
    const Simulation &sim() const { return _sim; }
    const std::string &name() const { return _name; }

    /** Current simulated time, for convenience. */
    Tick now() const { return _sim.now(); }

  private:
    Simulation &_sim;
    std::string _name;
};

} // namespace snic::sim

#endif // SNIC_SIM_SIMULATION_HH
