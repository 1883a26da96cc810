/**
 * @file
 * EventQueue implementation: hierarchical timer wheel over a slab
 * pool of event records. See the header for the design contract.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>

#include "sim/logging.hh"

namespace snic::sim {

EventQueue::EventQueue()
{
    _due.reserve(64);
}

EventQueue::~EventQueue() = default;

void
EventQueue::growPool()
{
    // Grow the slab by one chunk; thread it onto the free list in
    // ascending slot order.
    const auto base = static_cast<std::uint32_t>(poolSlots());
    auto chunk = std::make_unique<Record[]>(chunkSize);
    for (std::size_t i = chunkSize; i-- > 0;) {
        chunk[i].self = base + static_cast<std::uint32_t>(i);
        chunk[i].next = _freeHead;
        _freeHead = base + static_cast<std::uint32_t>(i);
    }
    _chunks.push_back(std::move(chunk));
}

void
EventQueue::freeRecord(Record *rec)
{
    rec->fn.reset();
    rec->next = _freeHead;
    _freeHead = rec->self;
    assert(_numPending > 0);
    --_numPending;
}

void
EventQueue::linkIntoWheel(Record *rec)
{
    // The level is set by the most significant bit where the event's
    // tick differs from the wheel position: within that level the
    // slot index is ahead of (or at) the wheel's own index, so the
    // occupancy scan never has to look behind itself. Gaps under
    // l0Slots ticks — the typical inter-event distance — land
    // directly in level 0 and never cascade.
    const std::uint64_t x = rec->when ^ _wheelTime;
    Bucket *b;
    if (x < l0Slots) {
        const unsigned slot =
            static_cast<unsigned>(rec->when) & l0Mask;
        b = &_l0Buckets[slot];
        _l0Word[slot >> 6] |= std::uint64_t(1) << (slot & 63);
        _l0Summary |= std::uint64_t(1) << (slot >> 6);
    } else {
        const unsigned msb =
            63u - static_cast<unsigned>(__builtin_clzll(x));
        const unsigned level = 1 + (msb - l0Bits) / levelBits;
        const unsigned slot =
            static_cast<unsigned>(rec->when >> upperShift(level)) &
            slotMask;
        b = &_buckets[level - 1][slot];
        _occupied[level - 1][slot >> 6] |=
            std::uint64_t(1) << (slot & 63);
        _levelSummary[level - 1] |= std::uint64_t(1) << (slot >> 6);
    }

    rec->next = nil;
    if (b->tail != nil)
        recordAt(b->tail)->next = rec->self;
    else
        b->head = rec->self;
    b->tail = rec->self;
}

EventQueue::Peek
EventQueue::advanceToDue(Tick bound)
{
    while (true) {
        // Level 0 first: two ctz steps through the two-level bitmap.
        const unsigned idx =
            static_cast<unsigned>(_wheelTime) & l0Mask;
        unsigned w = idx >> 6;
        std::uint64_t word =
            _l0Word[w] & (~std::uint64_t(0) << (idx & 63));
        if (word == 0) {
            const std::uint64_t sum =
                w + 1 < l0Words
                    ? _l0Summary & (~std::uint64_t(0) << (w + 1))
                    : 0;
            if (sum != 0) {
                w = static_cast<unsigned>(__builtin_ctzll(sum));
                word = _l0Word[w];
            }
        }
        if (word != 0) {
            const unsigned slot =
                (w << 6) +
                static_cast<unsigned>(__builtin_ctzll(word));
            // Level-0 buckets are one tick wide: exact time.
            const Tick when = (_wheelTime & ~Tick(l0Mask)) + slot;
            if (when > bound)
                return Peek::Beyond;

            // Collect the due batch in place: the bucket location is
            // already in hand, so extraction shares this scan instead
            // of re-deriving it.
            assert(_due.empty());
            _wheelTime = when;
            Bucket &b = _l0Buckets[slot];
            std::uint32_t walk = b.head;
            b.head = b.tail = nil;
            _l0Word[w] &= ~(std::uint64_t(1) << (slot & 63));
            if (_l0Word[w] == 0)
                _l0Summary &= ~(std::uint64_t(1) << w);
            while (walk != nil) {
                Record *rec = recordAt(walk);
                assert(rec->when == when);
                _due.push_back({rec->seq, walk});
                walk = rec->next;
            }
            // Cascades interleave older far-scheduled records with
            // younger directly-inserted ones, so the bucket is not
            // seq-sorted; sort descending so firing pops the lowest
            // seq off the back. Batches of one — the overwhelmingly
            // common case at 1-tick granularity — skip the sort.
            if (_due.size() > 1) {
                std::sort(_due.begin(), _due.end(),
                          [](const DueEntry &a, const DueEntry &b_) {
                              return a.seq > b_.seq;
                          });
            }
            _dueTick = when;
            return Peek::Exact;
        }

        bool cascaded = false;
        for (unsigned level = 1; level <= numUpper; ++level) {
            if (_levelSummary[level - 1] == 0)
                continue;
            const unsigned shift = upperShift(level);
            const unsigned i =
                static_cast<unsigned>(_wheelTime >> shift) & slotMask;
            // Same two-step bitmap scan as level 0: the word holding
            // the wheel's own index, then the summary for any later
            // word.
            unsigned w = i >> 6;
            std::uint64_t word = _occupied[level - 1][w] &
                                 (~std::uint64_t(0) << (i & 63));
            if (word == 0) {
                const std::uint64_t sum =
                    w + 1 < levelWords
                        ? _levelSummary[level - 1] &
                              (~std::uint64_t(0) << (w + 1))
                        : 0;
                if (sum == 0)
                    continue;
                w = static_cast<unsigned>(__builtin_ctzll(sum));
                word = _occupied[level - 1][w];
            }
            const unsigned s =
                (w << 6) +
                static_cast<unsigned>(__builtin_ctzll(word));
            // Cascade the earliest occupied bucket toward level 0 —
            // unless it starts past the caller's bound, in which
            // case the wheel is left untouched (the peek-without-
            // removal the window loop relies on).
            const unsigned span_bits = shift + levelBits;
            const Tick base =
                span_bits >= 64
                    ? 0
                    : _wheelTime & ~((Tick(1) << span_bits) - 1);
            const Tick start = base + (Tick(s) << shift);
            if (start > bound)
                return Peek::Beyond;

            _wheelTime = start;
            Bucket &b = _buckets[level - 1][s];
            std::uint32_t walk = b.head;
            b.head = b.tail = nil;
            _occupied[level - 1][w] &= ~(std::uint64_t(1) << (s & 63));
            if (_occupied[level - 1][w] == 0)
                _levelSummary[level - 1] &= ~(std::uint64_t(1) << w);
            while (walk != nil) {
                Record *rec = recordAt(walk);
                const std::uint32_t next = rec->next;
                linkIntoWheel(rec);
                walk = next;
            }
            cascaded = true;
            break;  // rescan from level 0
        }
        if (!cascaded)
            return Peek::Empty;
    }
}

void
EventQueue::fireDue()
{
    const DueEntry e = _due.back();
    _due.pop_back();
    Record *rec = recordAt(e.idx);
    if (rec->when < _curTick) {
        panic("EventQueue: time travel — event '%s' fires at %llu "
              "behind tick %llu",
              rec->label ? rec->label : "unlabeled",
              static_cast<unsigned long long>(rec->when),
              static_cast<unsigned long long>(_curTick));
    }
    _curTick = rec->when;
    ++_numFired;
    // Move the closure out and reclaim the slot before invoking, so
    // the callback may freely schedule (possibly reusing this very
    // slot).
    EventFn fn = std::move(rec->fn);
    freeRecord(rec);
    fn();
}

bool
EventQueue::runNext()
{
    if (_due.empty() && advanceToDue(maxTick) != Peek::Exact)
        return false;
    fireDue();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t fired = 0;
    while (true) {
        if (_due.empty()) {
            const Peek p = advanceToDue(limit);
            if (p == Peek::Empty) {
                _curTick = std::max(_curTick, limit);
                return fired;
            }
            if (p == Peek::Beyond) {
                // Not yet due: the event stays in its bucket — no
                // pop/re-push pair at the window boundary.
                _curTick = limit;
                return fired;
            }
        } else if (_dueTick > limit) {
            _curTick = limit;
            return fired;
        }
        fireDue();
        ++fired;
    }
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t fired = 0;
    while (runNext())
        ++fired;
    return fired;
}

void
EventQueue::panicPastTick(Tick when, const char *label) const
{
    panic("EventQueue: scheduling into the past (when=%llu cur=%llu, "
          "event '%s')",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(_curTick),
          label ? label : "unlabeled");
}

} // namespace snic::sim
