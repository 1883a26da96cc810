/**
 * @file
 * Chained hash table with automatic resizing — the storage engine
 * under the Redis and MICA workloads.
 *
 * Work accounting: every bucket probe is one randomTouches unit
 * (dependent load), hashing is arithOps, and value movement is
 * streamBytes; this is what makes KVS service time grow with load
 * factor and value size on both platforms.
 *
 * A value is kept as its length only: the work counts above are all
 * that prices a request, and none of them reads a value byte.
 */

#ifndef SNIC_ALG_KV_HASH_TABLE_HH
#define SNIC_ALG_KV_HASH_TABLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alg/workcount.hh"

namespace snic::alg::kv {

/**
 * String-keyed hash table storing value lengths.
 */
class HashTable
{
  public:
    explicit HashTable(std::size_t initial_buckets = 1024);

    /**
     * Insert or replace.
     *
     * @return true if a new key was inserted, false on replace.
     */
    bool put(std::string_view key, std::uint32_t value_bytes,
             WorkCounters &work);

    /** @return the value's length, or nullptr when absent. */
    const std::uint32_t *get(std::string_view key,
                             WorkCounters &work) const;

    /** @return true if the key existed. */
    bool erase(std::string_view key, WorkCounters &work);

    std::size_t size() const { return _size; }
    std::size_t numBuckets() const { return _buckets.size(); }

    double
    loadFactor() const
    {
        return static_cast<double>(_size) /
               static_cast<double>(_buckets.size());
    }

    /** Bytes of the keys plus the value lengths: the footprint the
     *  stored values model (memory accounting). */
    std::size_t memoryBytes() const { return _memoryBytes; }

    /**
     * Version of the bucket that holds @p key (MICA-style optimistic
     * concurrency: writers bump it, readers validate it twice).
     * Monotonically even when no writer is mid-flight.
     */
    std::uint64_t bucketVersion(std::string_view key) const;

    /** FNV-1a hash, exposed for reuse by other substrates. */
    static std::uint64_t fnv1a(std::string_view s);

  private:
    struct Node
    {
        std::string key;
        std::uint32_t valueBytes;
        std::unique_ptr<Node> next;
    };

    std::vector<std::unique_ptr<Node>> _buckets;
    /** Per-bucket version counters (bumped twice per mutation, odd
     *  while a write is conceptually in flight). */
    std::vector<std::uint64_t> _versions;
    std::size_t _size = 0;
    std::size_t _memoryBytes = 0;

    void maybeResize(WorkCounters &work);
};

} // namespace snic::alg::kv

#endif // SNIC_ALG_KV_HASH_TABLE_HH
