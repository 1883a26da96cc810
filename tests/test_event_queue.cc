/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/simulation.hh"

using namespace snic::sim;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runNext());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.curTick(), 20u);
    // Remaining event still pending.
    EXPECT_EQ(q.numPending(), 1u);
    q.runAll();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockWhenDrained)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.runUntil(100);
    EXPECT_EQ(q.curTick(), 100u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int chain = 0;
    std::function<void()> step = [&] {
        if (++chain < 5)
            q.scheduleIn(10, step);
    };
    q.schedule(0, step);
    q.runAll();
    EXPECT_EQ(chain, 5);
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueue, NumPendingTracksLiveEvents)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.numPending(), 2u);
    q.runNext();
    EXPECT_EQ(q.numPending(), 1u);
    q.runNext();
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ZeroDelayEventFiresAtCurrentTick)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runNext();
    bool fired = false;
    q.scheduleIn(0, [&] { fired = true; });
    q.runNext();
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.curTick(), 10u);
}

TEST(Simulation, SchedulingHelpersWork)
{
    Simulation sim(42);
    int count = 0;
    sim.after(usToTicks(1.0), [&] { ++count; });
    sim.at(usToTicks(2.0), [&] { ++count; });
    sim.runUntil(usToTicks(1.5));
    EXPECT_EQ(count, 1);
    sim.runAll();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sim.now(), usToTicks(2.0));
}

TEST(Types, TimeConversionsRoundTrip)
{
    EXPECT_EQ(nsToTicks(1.0), 1000u);
    EXPECT_EQ(usToTicks(1.0), 1'000'000u);
    EXPECT_EQ(msToTicks(1.0), 1'000'000'000u);
    EXPECT_EQ(secToTicks(1.0), ticksPerSec);
    EXPECT_DOUBLE_EQ(ticksToUs(usToTicks(12.5)), 12.5);
    EXPECT_DOUBLE_EQ(ticksToSec(secToTicks(2.0)), 2.0);
}

// ---------------------------------------------------------------------------
// Timer-wheel regression suite.
//
// The EventQueue used to be a lazy-deletion binary heap; the timer
// wheel that replaced it must be behaviourally indistinguishable:
// identical fire order (when, then insertion seq) and identical
// runUntil window semantics. RefQueue below is a
// file-local reimplementation of the old heap semantics, and the A/B
// harness drives both queues through the same randomized scripts.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace {

/** Reference scheduler: min-heap ordered by (when, seq) — the
 *  semantics of the binary-heap EventQueue the timer wheel
 *  replaced. */
class RefQueue
{
  public:
    void
    schedule(Tick when, std::function<void()> fn)
    {
        auto rec = std::make_unique<Rec>();
        rec->when = when;
        rec->seq = _nextSeq++;
        rec->fn = std::move(fn);
        _heap.push_back(std::move(rec));
        std::push_heap(_heap.begin(), _heap.end(), Later{});
    }

    bool
    runNext()
    {
        std::unique_ptr<Rec> rec = pop();
        if (rec == nullptr)
            return false;
        fire(*rec);
        return true;
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t fired = 0;
        while (std::unique_ptr<Rec> rec = pop()) {
            if (rec->when > limit) {
                // Old behaviour: pop then push back the not-yet-due
                // record (the wheel peeks instead; same observable
                // result).
                _heap.push_back(std::move(rec));
                std::push_heap(_heap.begin(), _heap.end(), Later{});
                _curTick = limit;
                return fired;
            }
            fire(*rec);
            ++fired;
        }
        _curTick = std::max(_curTick, limit);
        return fired;
    }

    std::uint64_t
    runAll()
    {
        std::uint64_t fired = 0;
        while (runNext())
            ++fired;
        return fired;
    }

    Tick curTick() const { return _curTick; }
    std::size_t numPending() const { return _heap.size(); }

  private:
    struct Rec
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const std::unique_ptr<Rec> &a,
                   const std::unique_ptr<Rec> &b) const
        {
            return a->when != b->when ? a->when > b->when
                                      : a->seq > b->seq;
        }
    };

    /** Pop the earliest record (null when empty). */
    std::unique_ptr<Rec>
    pop()
    {
        if (_heap.empty())
            return nullptr;
        std::pop_heap(_heap.begin(), _heap.end(), Later{});
        std::unique_ptr<Rec> rec = std::move(_heap.back());
        _heap.pop_back();
        return rec;
    }

    /** The record is already off the heap, mirroring the wheel's
     *  free-before-fire, so callbacks may schedule freely. */
    void
    fire(Rec &rec)
    {
        _curTick = rec.when;
        rec.fn();
    }

    Tick _curTick = 0;
    std::uint64_t _nextSeq = 1;
    std::vector<std::unique_ptr<Rec>> _heap;
};

/** Deterministic 64-bit LCG (same recurrence the bench harness
 *  uses), so the A/B scripts are reproducible. */
struct Lcg
{
    std::uint64_t state;
    std::uint64_t
    operator()()
    {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        return state >> 33;
    }
};

} // namespace

TEST(EventQueueWheel, MatchesHeapReferenceOnRandomScripts)
{
    // Drive the wheel and the heap reference through identical
    // randomized scripts — schedule bursts at mixed horizons
    // (including ~2^40-tick ones that exercise the deep wheel levels
    // and multi-step cascades) and runUntil windows — and demand
    // identical fire sequences, clocks, and pending counts.
    for (std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
        Lcg rnd{seed * 0x9e3779b97f4a7c15ull + 1};
        EventQueue wheel;
        RefQueue ref;
        std::vector<std::uint64_t> firedWheel;
        std::vector<std::uint64_t> firedRef;
        std::uint64_t tag = 0;

        for (int step = 0; step < 3000; ++step) {
            switch (rnd() % 8) {
            case 7: {  // run a window
                const Tick limit = wheel.curTick() + rnd() % 300000;
                const std::uint64_t fw = wheel.runUntil(limit);
                const std::uint64_t fr = ref.runUntil(limit);
                ASSERT_EQ(fw, fr) << "fired-count diverged at step "
                                  << step;
                ASSERT_EQ(wheel.curTick(), ref.curTick());
                break;
            }
            default: {  // schedule a small burst
                const unsigned burst = 1 + rnd() % 4;
                for (unsigned k = 0; k < burst; ++k) {
                    const std::uint64_t r = rnd();
                    Tick horizon;
                    switch (r & 7) {
                    case 0:  // far: deep levels, long cascades
                        horizon = 1 + (r >> 8) % (Tick(1) << 40);
                        break;
                    case 1:  // mid: a few milliseconds
                        horizon = 1 + (r >> 8) % 100000000;
                        break;
                    default:  // near: inside / just past level 0
                        horizon = (r >> 8) % 6000;
                        break;
                    }
                    const Tick when = wheel.curTick() + horizon;
                    const std::uint64_t t = tag++;
                    wheel.schedule(when, [&firedWheel, t] {
                        firedWheel.push_back(t);
                    });
                    ref.schedule(when, [&firedRef, t] {
                        firedRef.push_back(t);
                    });
                }
                break;
            }
            }
            ASSERT_EQ(wheel.numPending(), ref.numPending())
                << "pending diverged at step " << step;
            ASSERT_EQ(firedWheel.size(), firedRef.size());
        }
        EXPECT_EQ(wheel.runAll(), ref.runAll());
        EXPECT_EQ(wheel.curTick(), ref.curTick());
        EXPECT_EQ(firedWheel, firedRef)
            << "fire order diverged for seed " << seed;
    }
}

TEST(EventQueueWheel, FarHorizonsFireInOrderWithExactClock)
{
    // A deterministic sweep across every wheel level: horizons from
    // one tick to beyond 2^52 must fire in time order with the clock
    // landing exactly on each scheduled tick.
    EventQueue q;
    const Tick horizons[] = {
        (Tick(1) << 52) + 11, 1,    (Tick(1) << 40) + 7,
        4096,                 3,    (Tick(1) << 21) + 5,
        (Tick(1) << 30) + 1,  4095,
    };
    std::vector<Tick> fired;
    for (Tick h : horizons)
        q.schedule(h, [&fired, h, &q] {
            fired.push_back(h);
            EXPECT_EQ(q.curTick(), h);
        });
    EXPECT_EQ(q.runAll(), 8u);
    std::vector<Tick> expect(std::begin(horizons),
                             std::end(horizons));
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fired, expect);
}

TEST(EventQueueWheel, FiredSlotsAreReused)
{
    // A fired record goes back on the free list before its callback
    // runs, so pool growth tracks peak *pending* events, not the
    // number ever scheduled: a million schedule/fire pairs with at
    // most two events pending must stay within the first slab chunk.
    EventQueue q;
    q.schedule(1, [] {});
    for (int i = 0; i < 1000000; ++i) {
        q.schedule(q.curTick() + 1 + i % 4096, [] {});
        q.runNext();
    }
    EXPECT_EQ(q.numPending(), 1u);
    EXPECT_EQ(q.numFired(), 1000000u);
    EXPECT_LE(q.poolSlots(), 512u);
}

TEST(EventQueueWheel, DrainedThenResumedPreservesOrder)
{
    // Repeated runUntil window boundaries (the sweep driver's idle
    // polling pattern) must not perturb (when, seq) order among
    // events scheduled before, between, and after the windows.
    EventQueue q;
    std::vector<int> order;
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(100, [&] { order.push_back(2); });
    EXPECT_EQ(q.runUntil(50), 0u);  // peeks, fires nothing
    EXPECT_EQ(q.curTick(), 50u);
    q.schedule(100, [&] { order.push_back(3); });  // same-tick tie
    EXPECT_EQ(q.runUntil(60), 0u);
    q.schedule(75, [&] { order.push_back(0); });
    EXPECT_EQ(q.runUntil(99), 1u);
    EXPECT_EQ(q.runAll(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.curTick(), 100u);

    // Draining completely and resuming must behave the same way.
    q.schedule(200, [&] { order.push_back(4); });
    q.schedule(200, [&] { order.push_back(5); });
    EXPECT_EQ(q.runUntil(300), 2u);
    EXPECT_EQ(q.curTick(), 300u);
    q.schedule(350, [&] { order.push_back(6); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueWheelDeathTest, PastTickScheduleAbortsWithLabel)
{
    // Scheduling into the past is a hard bug in the caller; it must
    // abort loudly and name the offending component.
    EventQueue q;
    q.schedule(100, [] {});
    q.runAll();
    ASSERT_EQ(q.curTick(), 100u);
    EXPECT_DEATH(q.schedule(50, [] {}, "nic-dma-engine"),
                 "scheduling into the past.*nic-dma-engine");
    EXPECT_DEATH(q.schedule(99, [] {}),
                 "scheduling into the past.*unlabeled");
}
