/**
 * @file
 * KvStore implementation.
 */

#include "alg/kv/kv_store.hh"

namespace snic::alg::kv {

KvStore::KvStore(std::size_t initial_buckets)
    : _table(initial_buckets)
{
}

std::string
KvStore::keyFor(std::uint64_t i)
{
    return "user" + std::to_string(i);
}

OpResult
KvStore::execute(const Op &op, WorkCounters &work)
{
    OpResult result{false, 0};
    switch (op.type) {
      case OpType::Get: {
        const auto *v = _table.get(op.key, work);
        if (v) {
            result.hit = true;
            result.valueBytes = *v;
            ++_hits;
        } else {
            ++_misses;
        }
        break;
      }
      case OpType::Put:
        _table.put(op.key, op.valueBytes, work);
        result.hit = true;
        break;
      case OpType::Delete:
        result.hit = _table.erase(op.key, work);
        break;
    }
    work.messages += 1;
    return result;
}

std::vector<OpResult>
KvStore::executeBatch(const std::vector<Op> &ops, WorkCounters &work)
{
    std::vector<OpResult> results;
    results.reserve(ops.size());
    for (const Op &op : ops)
        results.push_back(execute(op, work));
    return results;
}

void
KvStore::load(std::size_t records, std::size_t value_size,
              sim::Random &rng, WorkCounters &work)
{
    // The generator moves as if each value byte were drawn.
    rng.discard(records * value_size);
    for (std::size_t i = 0; i < records; ++i)
        _table.put(keyFor(i), static_cast<std::uint32_t>(value_size),
                   work);
}

} // namespace snic::alg::kv
