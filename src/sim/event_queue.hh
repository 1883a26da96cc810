/**
 * @file
 * Discrete-event scheduler: the heart of the testbed simulator.
 *
 * Events are closures scheduled at absolute ticks; ties break by
 * insertion order (a global sequence number), so runs are fully
 * deterministic. The implementation is a hierarchical timer wheel
 * over a slab pool of event records:
 *
 *  - level 0 is 4096 one-tick slots (a two-level u64 bitmap finds
 *    the next occupied slot in two ctz steps), sized so that at
 *    fleet-scale event densities (a few thousand ticks between
 *    events) the typical schedule lands directly in level 0 and
 *    never cascades; six 9-bit upper levels cover the rest of the
 *    64-bit tick range, sized so microsecond-scale horizons (the
 *    dominant link/service delays) sit in level 1 and cascade toward
 *    level 0 exactly once (amortized O(1)).
 *  - Records live in a slab pool (chunked, stable addresses) with a
 *    free list; scheduling is pointer-bump/free-list-pop, never
 *    new/delete per event.
 *  - Closures are stored in the record's InlineFn buffer, so typical
 *    captures (a packet copy plus a `this`) never touch the heap.
 *  - There is no cancellation: every scheduled event fires. A
 *    component with stale work pending stamps it with its own
 *    generation and lets the event fire as a no-op, so buckets are
 *    singly-linked FIFOs and a record is freed only by firing.
 *
 * Determinism: fire order is exactly (when, seq), identical to the
 * binary-heap scheduler this replaced (proven by the randomized A/B
 * harness in tests/test_event_queue.cc), so golden results are
 * bitwise unchanged.
 */

#ifndef SNIC_SIM_EVENT_QUEUE_HH
#define SNIC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/types.hh"

namespace snic::sim {

/**
 * A time-ordered queue of callback events.
 *
 * The queue is single-threaded by design: the whole testbed runs in
 * one simulated timeline, mirroring the single physical server of the
 * paper's setup.
 */
class EventQueue
{
  public:
    /** Inline closure capacity per event record. Sized so the hot
     *  schedules (packet delivery, platform completion with two
     *  moved-in 64-byte Completions, a pipeline request in flight)
     *  stay allocation-free; bigger captures fall back to one heap
     *  block inside InlineFn. */
    static constexpr std::size_t fnInlineBytes = 184;

    using EventFn = InlineFn<void(), fnInlineBytes>;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @param when  absolute tick; must be >= curTick().
     * @param fn    callback executed when the event fires.
     * @param label optional debug label (owning component name) kept
     *              with the record; it is printed by the fatal paths
     *              (past-tick scheduling, time travel) so fleet-scale
     *              failures name their component. The pointer must
     *              stay valid while the event is pending.
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn, const char *label = nullptr)
    {
        Record *rec = allocRecord(when, label);
        rec->fn.emplace(std::forward<F>(fn));
        rec->seq = _nextSeq++;
        linkIntoWheel(rec);
        ++_numPending;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn, const char *label = nullptr)
    {
        schedule(_curTick + delay, std::forward<F>(fn), label);
    }

    /** Number of pending (not yet fired) events. */
    std::size_t numPending() const { return _numPending; }

    /** True when no pending events remain. */
    bool empty() const { return _numPending == 0; }

    /**
     * Fire the next event, advancing the clock to its time.
     *
     * @return false when the queue is empty.
     */
    bool runNext();

    /**
     * Run events until the clock would pass @p limit.
     *
     * The clock is left at exactly @p limit if the queue drains or
     * the next event lies beyond the limit. The not-yet-due event is
     * only peeked at — never dequeued and re-queued — so repeated
     * window boundaries cost no re-ordering work.
     *
     * @return number of events fired.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until no events remain. @return number of events fired. */
    std::uint64_t runAll();

    /** Total number of events ever fired. */
    std::uint64_t numFired() const { return _numFired; }

    /** Pool capacity in records (allocated slabs; bounded by the
     *  peak number of simultaneously pending events, not by the
     *  number ever scheduled — see the slot-reuse regression
     *  test). */
    std::size_t poolSlots() const
    {
        return _chunks.size() * chunkSize;
    }

  private:
    /** Level 0: one-tick slots, wide enough that typical inter-event
     *  gaps stay inside it (no cascade on the common path). */
    static constexpr unsigned l0Bits = 12;
    static constexpr unsigned l0Slots = 1u << l0Bits;
    static constexpr unsigned l0Mask = l0Slots - 1;
    static constexpr unsigned l0Words = l0Slots / 64;
    /** Upper levels: 9 bits each; 12 + 6*9 = 66 bits >= 64. Level 1
     *  then spans 2^21 ticks (2 us at 1 ps/tick), so the dominant
     *  schedule horizons — link flight and service times around a
     *  microsecond — insert at level 1 and cascade exactly once on
     *  their way to level 0. */
    static constexpr unsigned levelBits = 9;
    static constexpr unsigned slotsPerLevel = 1u << levelBits;
    static constexpr unsigned slotMask = slotsPerLevel - 1;
    static constexpr unsigned levelWords = slotsPerLevel / 64;
    static constexpr unsigned numUpper = 6;
    static constexpr std::uint32_t nil = ~std::uint32_t(0);
    static constexpr std::size_t chunkSize = 512;

    /** Bit shift of upper level @p level (1-based). */
    static constexpr unsigned
    upperShift(unsigned level)
    {
        return l0Bits + levelBits * (level - 1);
    }

    /** One scheduled event, pooled. */
    struct Record
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** This record's own pool index (set once at slab growth). */
        std::uint32_t self = 0;
        /** Next record in the bucket FIFO or on the free list (pool
         *  index). */
        std::uint32_t next = nil;
        const char *label = nullptr;
        EventFn fn;
    };

    /** One wheel bucket: a singly-linked FIFO of records (append at
     *  tail). */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    /** A record extracted from the current level-0 bucket, awaiting
     *  its turn to fire at _dueTick. */
    struct DueEntry
    {
        std::uint64_t seq;
        std::uint32_t idx;
    };

    Record *recordAt(std::uint32_t idx)
    {
        return &_chunks[idx / chunkSize][idx % chunkSize];
    }

    /** Pop a free record (growing the slab on exhaustion) and stamp
     *  its time and label. Inline: schedule() is the hottest call in
     *  fleet-scale runs and this is its fast path. */
    Record *
    allocRecord(Tick when, const char *label)
    {
        if (when < _curTick)
            panicPastTick(when, label);
        if (_freeHead == nil)
            growPool();
        Record *rec = recordAt(_freeHead);
        _freeHead = rec->next;
        rec->when = when;
        rec->label = label;
        return rec;
    }

    void growPool();
    void freeRecord(Record *rec);
    void linkIntoWheel(Record *rec);

    enum class Peek
    {
        Exact,   ///< a due batch was collected at _dueTick
        Beyond,  ///< earliest event lies past the bound (untouched)
        Empty,   ///< no pending events in the wheel
    };

    Peek advanceToDue(Tick bound);
    void fireDue();
    [[noreturn]] void panicPastTick(Tick when, const char *label) const;

    Tick _curTick = 0;
    /** Wheel position: a lower bound on every pending event's tick,
     *  advanced by cascades. Invariant: _wheelTime <= _curTick at
     *  every public-API boundary. */
    Tick _wheelTime = 0;
    std::uint64_t _nextSeq = 1;
    std::size_t _numPending = 0;
    std::uint64_t _numFired = 0;

    /** Level 0: slot occupancy as a two-level bitmap (summary bit w
     *  set iff _l0Word[w] != 0). */
    Bucket _l0Buckets[l0Slots];
    std::uint64_t _l0Word[l0Words] = {};
    std::uint64_t _l0Summary = 0;
    /** Upper levels, 1-based (index 0 = level 1), each with the same
     *  two-level occupancy bitmap as level 0 (summary bit w set iff
     *  _occupied[level][w] != 0). */
    Bucket _buckets[numUpper][slotsPerLevel];
    std::uint64_t _occupied[numUpper][levelWords] = {};
    std::uint64_t _levelSummary[numUpper] = {};

    /** Slab pool: stable chunked storage plus a free list threaded
     *  through Record::next. */
    std::vector<std::unique_ptr<Record[]>> _chunks;
    std::uint32_t _freeHead = nil;

    /** The current tick's extracted batch, sorted by descending seq
     *  so firing pops from the back. */
    std::vector<DueEntry> _due;
    Tick _dueTick = 0;
};

} // namespace snic::sim

#endif // SNIC_SIM_EVENT_QUEUE_HH
