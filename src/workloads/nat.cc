/**
 * @file
 * NAT workload implementation.
 */

#include "workloads/nat.hh"

#include "workloads/setup_cache.hh"

namespace snic::workloads {

namespace {

Spec
natSpec(std::size_t entries)
{
    Spec s;
    s.id = entries >= 1000000 ? "nat_1m" : "nat_10k";
    s.family = "nat";
    s.configLabel = entries >= 1000000 ? "1M entries" : "10K entries";
    s.stack = stack::StackKind::Udp;
    s.sizes = net::SizeDist::fixed(net::kbPacketBytes);
    return s;
}

} // anonymous namespace

Nat::Nat(std::size_t entries)
    : Workload(natSpec(entries)), _entries(entries)
{
}

void
Nat::setup(sim::Random &rng)
{
    _flows = cachedSetup<Flows>(id(), rng, [this](sim::Random &r) {
        // Bucket count chosen so the 1 M table has long chains
        // relative to the 10 K one (the KO4 input sensitivity).
        Flows flows{alg::nat::NatTable(65536), {}};
        alg::WorkCounters populate_work;
        flows.internals =
            flows.table.populate(_entries, r, populate_work);
        return flows;
    });
}

RequestPlan
Nat::plan(std::uint32_t request_bytes, hw::Platform platform,
          sim::Random &rng)
{
    (void)platform;
    RequestPlan p;
    // Translate a known flow most of the time; a small miss rate
    // models unmapped traffic that gets dropped.
    const bool known = rng.chance(0.98);
    alg::nat::Endpoint src;
    if (known) {
        src = _flows->internals[static_cast<std::size_t>(
            rng.uniformInt(0, _flows->internals.size() - 1))];
    } else {
        src = alg::nat::Endpoint{
            static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint16_t>(rng.uniformInt(1, 65535))};
    }
    const auto mapped = _flows->table.translateOut(src, p.cpuWork);
    if (mapped) {
        // Header rewrite + RFC 1624 checksum fix for IP and UDP.
        alg::nat::NatTable::adjustChecksum(0xbeef, src.ip, mapped->ip,
                                           p.cpuWork);
        alg::nat::NatTable::adjustChecksum(
            0xcafe, src.port, mapped->port, p.cpuWork);
        p.responseBytes = request_bytes;  // forwarded
    } else {
        p.responseBytes = 0;  // dropped
    }
    p.cpuWork.messages = 1;
    return p;
}

} // namespace snic::workloads
