/**
 * @file
 * Setup cache implementation.
 */

#include "workloads/setup_cache.hh"

#include <atomic>
#include <bit>
#include <map>
#include <mutex>
#include <tuple>

namespace snic::workloads {

namespace {

struct Key
{
    std::type_index type;
    std::string id;
    std::array<std::uint64_t, 4> words;
    bool haveSpare;
    std::uint64_t spareBits;

    bool
    operator<(const Key &o) const
    {
        return std::tie(type, id, words, haveSpare, spareBits) <
               std::tie(o.type, o.id, o.words, o.haveSpare,
                        o.spareBits);
    }
};

struct Entry
{
    std::once_flag built;
    std::shared_ptr<const void> product;
    sim::Random::State exit;
};

struct Cache
{
    std::mutex mutex;
    /** Node-based, and nothing is erased: an Entry never moves. */
    std::map<Key, Entry> entries;
    std::atomic<std::uint64_t> builds{0};
};

Cache &
cache()
{
    static Cache c;
    return c;
}

} // anonymous namespace

std::shared_ptr<const void>
detail::cachedSetup(std::type_index type, const std::string &id,
                    sim::Random &rng, const ErasedBuild &build)
{
    const sim::Random::State at_entry = rng.state();
    Key key{type, id, at_entry.words, at_entry.haveSpare,
            std::bit_cast<std::uint64_t>(at_entry.spare)};
    Cache &c = cache();
    Entry *entry;
    {
        std::lock_guard lock(c.mutex);
        entry = &c.entries.try_emplace(std::move(key)).first->second;
    }
    std::call_once(entry->built, [&] {
        entry->product = build(rng);
        entry->exit = rng.state();
        c.builds.fetch_add(1, std::memory_order_relaxed);
    });
    rng.restore(entry->exit);
    return entry->product;
}

std::uint64_t
setupCacheBuilds()
{
    return cache().builds.load(std::memory_order_relaxed);
}

} // namespace snic::workloads
