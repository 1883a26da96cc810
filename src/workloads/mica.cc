/**
 * @file
 * Mica workload implementation.
 */

#include "workloads/mica.hh"

namespace snic::workloads {

namespace {

Spec
micaSpec(unsigned batch)
{
    Spec s;
    s.id = "mica_b" + std::to_string(batch);
    s.family = "mica";
    s.configLabel = "batch " + std::to_string(batch);
    s.stack = stack::StackKind::Rdma;
    // One request packet carries a whole batch of GET keys.
    s.sizes = net::SizeDist::fixed(std::max(64u, batch * 16u));
    return s;
}

} // anonymous namespace

Mica::Mica(unsigned batch)
    : Workload(micaSpec(batch)), _batch(batch)
{
}

void
Mica::setup(sim::Random &rng)
{
    _store = std::make_unique<alg::kv::KvStore>(262144);
    alg::WorkCounters load_work;
    _store->load(records, valueBytes, rng, load_work);
    _keys = std::make_unique<sim::ZipfSampler>(records, 0.99);
}

RequestPlan
Mica::plan(std::uint32_t request_bytes, hw::Platform platform,
           sim::Random &rng)
{
    (void)request_bytes;
    RequestPlan p;

    // Two-sided verb handling per batch: the host's NIC doorbell/
    // descriptor path is longer (same mechanism as micro_rdma).
    p.cpuWork.branchyOps +=
        platform == hw::Platform::HostCpu ? 180 : 60;

    std::uint32_t response = 24;  // batch header
    std::vector<alg::kv::Op> ops;
    ops.reserve(_batch);
    for (unsigned i = 0; i < _batch; ++i) {
        alg::kv::Op op;
        op.type = alg::kv::OpType::Get;
        op.key = alg::kv::KvStore::keyFor(_keys->sample(rng));
        ops.push_back(std::move(op));
    }
    const auto results = _store->executeBatch(ops, p.cpuWork);
    for (const auto &r : results)
        response += r.valueBytes + 8;

    // Kernel-bypass runtime: one dispatch per *batch*, not per op
    // (executeBatch counted one per op for the generic store API).
    p.cpuWork.messages = 1;

    p.responseBytes = response;
    return p;
}

} // namespace snic::workloads
