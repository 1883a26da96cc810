/**
 * @file
 * Redis workload implementation.
 */

#include "workloads/redis.hh"

#include "sim/logging.hh"

namespace snic::workloads {

const char *
ycsbMixName(YcsbMix mix)
{
    switch (mix) {
      case YcsbMix::A:
        return "workload_a";
      case YcsbMix::B:
        return "workload_b";
      case YcsbMix::C:
        return "workload_c";
    }
    sim::panic("ycsbMixName: bad mix");
}

namespace {

Spec
redisSpec(YcsbMix mix)
{
    Spec s;
    const char suffix = mix == YcsbMix::A ? 'a'
                        : mix == YcsbMix::B ? 'b'
                                            : 'c';
    s.id = std::string("redis_") + suffix;
    s.family = "redis";
    s.configLabel = ycsbMixName(mix);
    s.stack = stack::StackKind::Tcp;
    // YCSB requests carry the key (reads) or key+1 KB value (writes);
    // model the request as small with write payloads counted below.
    s.sizes = net::SizeDist::fixed(128);
    return s;
}

double
readFractionOf(YcsbMix mix)
{
    switch (mix) {
      case YcsbMix::A:
        return 0.5;
      case YcsbMix::B:
        return 0.95;
      case YcsbMix::C:
        return 1.0;
    }
    return 1.0;
}

} // anonymous namespace

Redis::Redis(YcsbMix mix)
    : Workload(redisSpec(mix)),
      _mix(mix),
      _readFraction(readFractionOf(mix))
{
}

void
Redis::setup(sim::Random &rng)
{
    _store = std::make_unique<alg::kv::KvStore>(65536);
    alg::WorkCounters load_work;
    _store->load(records, valueBytes, rng, load_work);
    _keys = std::make_unique<sim::ZipfSampler>(records, 0.99);
}

RequestPlan
Redis::plan(std::uint32_t request_bytes, hw::Platform platform,
            sim::Random &rng)
{
    (void)request_bytes;
    (void)platform;
    RequestPlan p;
    const std::uint64_t key_id = _keys->sample(rng);

    alg::kv::Op op;
    op.key = alg::kv::KvStore::keyFor(key_id);
    if (rng.chance(_readFraction)) {
        op.type = alg::kv::OpType::Get;
    } else {
        op.type = alg::kv::OpType::Put;
        op.valueBytes = valueBytes;
        // A YCSB update writes one repeated fill byte. Only the
        // value's length prices the write, but the byte is still
        // drawn, so the draws after it match a store that keeps bytes.
        rng.next();
    }

    const auto result = _store->execute(op, p.cpuWork);
    // RESP protocol parse/format overhead.
    p.cpuWork.branchyOps += 120;
    p.cpuWork.arithOps += 60;
    p.responseBytes = op.type == alg::kv::OpType::Get && result.hit
                          ? result.valueBytes + 16
                          : 16;
    return p;
}

} // namespace snic::workloads
