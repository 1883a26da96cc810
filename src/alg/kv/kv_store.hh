/**
 * @file
 * Key-value store facade over the hash table: the engine shared by
 * the Redis (TCP, YCSB-driven) and MICA (RDMA, batched) workloads.
 */

#ifndef SNIC_ALG_KV_KV_STORE_HH
#define SNIC_ALG_KV_KV_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alg/kv/hash_table.hh"
#include "alg/workcount.hh"
#include "sim/random.hh"

namespace snic::alg::kv {

/** Operation kinds a KVS request can carry. */
enum class OpType
{
    Get,
    Put,
    Delete,
};

/** One KVS operation. */
struct Op
{
    OpType type;
    std::string key;
    std::uint32_t valueBytes = 0;  // Put only
};

/** Result of one operation. */
struct OpResult
{
    bool hit;                      // Get: found; Del: erased
    std::uint32_t valueBytes = 0;  // Get only
};

/**
 * The store.
 */
class KvStore
{
  public:
    explicit KvStore(std::size_t initial_buckets = 4096);

    /** Execute one operation. */
    OpResult execute(const Op &op, WorkCounters &work);

    /** Execute a batch (MICA-style); results align with ops. */
    std::vector<OpResult> executeBatch(const std::vector<Op> &ops,
                                       WorkCounters &work);

    /**
     * Bulk-load @p records sequential records of @p value_size bytes
     * with keys "user0".."userN-1" (the YCSB load phase; the paper
     * loads 30 K records of 1 KB each). The store keeps lengths, not
     * bytes, yet @p rng leaves where drawing every value byte with
     * next() would leave it, so every later draw is unchanged.
     */
    void load(std::size_t records, std::size_t value_size,
              sim::Random &rng, WorkCounters &work);

    /** Canonical YCSB-style key for record @p i. */
    static std::string keyFor(std::uint64_t i);

    std::size_t size() const { return _table.size(); }
    std::size_t memoryBytes() const { return _table.memoryBytes(); }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

  private:
    HashTable _table;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace snic::alg::kv

#endif // SNIC_ALG_KV_KV_STORE_HH
