/**
 * @file
 * HashTable implementation.
 */

#include "alg/kv/hash_table.hh"

#include <cassert>

namespace snic::alg::kv {

std::uint64_t
HashTable::fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

HashTable::HashTable(std::size_t initial_buckets)
    : _buckets(initial_buckets == 0 ? 1 : initial_buckets),
      _versions(_buckets.size(), 0)
{
}

std::uint64_t
HashTable::bucketVersion(std::string_view key) const
{
    return _versions[fnv1a(key) % _versions.size()];
}

void
HashTable::maybeResize(WorkCounters &work)
{
    if (loadFactor() <= 0.75)
        return;
    std::vector<std::unique_ptr<Node>> fresh(_buckets.size() * 2);
    for (auto &head : _buckets) {
        while (head) {
            std::unique_ptr<Node> node = std::move(head);
            head = std::move(node->next);
            const std::size_t idx =
                fnv1a(node->key) % fresh.size();
            node->next = std::move(fresh[idx]);
            fresh[idx] = std::move(node);
            work.randomTouches += 1;
        }
    }
    _buckets = std::move(fresh);
    // A resize republishes every bucket: restart version counters
    // at an even value above any previous one.
    std::uint64_t vmax = 0;
    for (std::uint64_t v : _versions)
        vmax = std::max(vmax, v);
    _versions.assign(_buckets.size(), vmax + 2);
    work.arithOps += _size;
}

bool
HashTable::put(std::string_view key, std::uint32_t value_bytes,
               WorkCounters &work)
{
    work.arithOps += key.size();  // hashing
    const std::size_t idx = fnv1a(key) % _buckets.size();
    // Writer protocol: odd version while mutating, even after.
    _versions[idx] += 1;
    for (Node *n = _buckets[idx].get(); n; n = n->next.get()) {
        work.randomTouches += 1;
        if (n->key == key) {
            _memoryBytes -= n->valueBytes;
            _memoryBytes += value_bytes;
            work.streamBytes += value_bytes;
            n->valueBytes = value_bytes;
            _versions[idx] += 1;
            return false;
        }
    }
    auto node = std::make_unique<Node>();
    node->key.assign(key);
    work.streamBytes += key.size() + value_bytes;
    _memoryBytes += key.size() + value_bytes;
    node->valueBytes = value_bytes;
    node->next = std::move(_buckets[idx]);
    _buckets[idx] = std::move(node);
    ++_size;
    _versions[idx] += 1;
    maybeResize(work);
    return true;
}

const std::uint32_t *
HashTable::get(std::string_view key, WorkCounters &work) const
{
    work.arithOps += key.size();
    const std::size_t idx = fnv1a(key) % _buckets.size();
    // Optimistic-read protocol: load the bucket version before and
    // after the chain walk (the two validation loads MICA readers
    // pay). Single-threaded here, so validation always succeeds; the
    // cost is what matters.
    work.arithOps += 2;
    for (const Node *n = _buckets[idx].get(); n; n = n->next.get()) {
        work.randomTouches += 1;
        if (n->key == key) {
            work.streamBytes += n->valueBytes;
            return &n->valueBytes;
        }
    }
    return nullptr;
}

bool
HashTable::erase(std::string_view key, WorkCounters &work)
{
    work.arithOps += key.size();
    const std::size_t idx = fnv1a(key) % _buckets.size();
    _versions[idx] += 1;
    std::unique_ptr<Node> *link = &_buckets[idx];
    while (*link) {
        work.randomTouches += 1;
        if ((*link)->key == key) {
            _memoryBytes -= (*link)->key.size() + (*link)->valueBytes;
            std::unique_ptr<Node> dead = std::move(*link);
            *link = std::move(dead->next);
            --_size;
            _versions[idx] += 1;
            return true;
        }
        link = &(*link)->next;
    }
    _versions[idx] += 1;
    return false;
}

} // namespace snic::alg::kv
