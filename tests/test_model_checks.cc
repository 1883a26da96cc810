/**
 * @file
 * Reference-model and conservation checks: randomized operation
 * sequences against known-good models, and accounting invariants of
 * the queueing substrate.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "alg/kv/kv_store.hh"
#include "alg/nat/nat_table.hh"
#include "hw/platform.hh"
#include "net/link.hh"
#include "stats/histogram.hh"
#include "sim/random.hh"

using namespace snic;
using namespace snic::alg;
using snic::sim::Random;

TEST(KvModelCheck, RandomOpsMatchUnorderedMap)
{
    Random rng(2001);
    kv::KvStore store(16);
    std::unordered_map<std::string, std::uint32_t> model;
    WorkCounters w;

    for (int i = 0; i < 20000; ++i) {
        const std::string key =
            "k" + std::to_string(rng.uniformInt(0, 500));
        const int action = static_cast<int>(rng.uniformInt(0, 9));
        if (action < 5) {
            kv::Op op{kv::OpType::Get, key, {}};
            const auto r = store.execute(op, w);
            const auto it = model.find(key);
            ASSERT_EQ(r.hit, it != model.end()) << i;
            if (r.hit) {
                ASSERT_EQ(r.valueBytes, it->second) << i;
            }
        } else if (action < 8) {
            // The store keeps lengths. Skipping one draw per value
            // byte, as filling the bytes would take, keeps the
            // operation sequence of the byte-filling model.
            const auto len =
                static_cast<std::uint32_t>(rng.uniformInt(1, 64));
            rng.discard(len);
            kv::Op op{kv::OpType::Put, key, len};
            store.execute(op, w);
            model[key] = len;
        } else {
            kv::Op op{kv::OpType::Delete, key, {}};
            const auto r = store.execute(op, w);
            ASSERT_EQ(r.hit, model.erase(key) > 0) << i;
        }
    }
    EXPECT_EQ(store.size(), model.size());
}

TEST(NatModelCheck, RandomLookupsMatchMap)
{
    Random rng(2002);
    nat::NatTable table(64);
    std::map<std::pair<std::uint32_t, std::uint16_t>, nat::Endpoint>
        model;
    WorkCounters w;
    for (int i = 0; i < 4000; ++i) {
        nat::Translation t;
        t.internal = {static_cast<std::uint32_t>(rng.next()),
                      static_cast<std::uint16_t>(rng.next())};
        t.external = {static_cast<std::uint32_t>(rng.next()),
                      static_cast<std::uint16_t>(rng.next())};
        const auto key =
            std::make_pair(t.internal.ip, t.internal.port);
        if (model.count(key))
            continue;  // the simple model has no duplicate handling
        table.insert(t, w);
        model[key] = t.external;
    }
    // Every inserted mapping resolves; random misses do not.
    for (const auto &[key, external] : model) {
        const auto got =
            table.translateOut({key.first, key.second}, w);
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->ip, external.ip);
        ASSERT_EQ(got->port, external.port);
    }
    int false_hits = 0;
    for (int i = 0; i < 2000; ++i) {
        nat::Endpoint probe{static_cast<std::uint32_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next())};
        if (model.count({probe.ip, probe.port}))
            continue;
        false_hits += table.translateOut(probe, w).has_value();
    }
    EXPECT_EQ(false_hits, 0);
}

TEST(Conservation, PlatformBusyIntegralEqualsServiceSum)
{
    // Work conservation: the busy-time integral must equal the sum
    // of the service times of everything executed.
    sim::Simulation s;
    hw::ExecutionPlatform p(s, "p", 3,
                            hw::CostModel{.perBranchyOp = 1.0});
    Random rng(2003);
    double expected_sec = 0.0;
    for (int i = 0; i < 500; ++i) {
        WorkCounters w;
        w.branchyOps = rng.uniformInt(10, 5000);
        expected_sec += static_cast<double>(w.branchyOps) * 1e-9;
        const sim::Tick when =
            sim::usToTicks(static_cast<double>(rng.uniformInt(0, 500)));
        s.at(when, [&p, w] { p.submit(w, 0, nullptr); });
    }
    s.runAll();
    EXPECT_NEAR(p.busyIntegral(), expected_sec, expected_sec * 1e-9);
    EXPECT_EQ(p.completedCount(), 500u);
}

TEST(Conservation, LinkDeliversEverythingBelowHorizon)
{
    sim::Simulation s;
    net::Link link(s, "wire", 100.0, sim::usToTicks(1.0));
    std::uint64_t delivered_bytes = 0;
    link.connect([&](const net::Packet &pkt) {
        delivered_bytes += pkt.sizeBytes;
    });
    Random rng(2004);
    std::uint64_t sent_bytes = 0;
    for (int i = 0; i < 2000; ++i) {
        net::Packet pkt;
        pkt.sizeBytes =
            static_cast<std::uint32_t>(rng.uniformInt(64, 1500));
        // Paced well under 100 Gbps -> never near the drop horizon.
        const sim::Tick when = sim::usToTicks(static_cast<double>(i));
        s.at(when, [&link, pkt]() mutable { link.send(pkt); });
        sent_bytes += pkt.sizeBytes;
    }
    s.runAll();
    EXPECT_EQ(delivered_bytes, sent_bytes);
    EXPECT_EQ(link.dropped(), 0u);
    EXPECT_EQ(link.delivered(), 2000u);
}

TEST(Conservation, FifoOrderPreservedPerWorker)
{
    sim::Simulation s;
    hw::ExecutionPlatform p(s, "p", 1,
                            hw::CostModel{.perArithOp = 1.0});
    std::vector<int> order;
    Random rng(2005);
    for (int i = 0; i < 100; ++i) {
        WorkCounters w;
        w.arithOps = rng.uniformInt(1, 1000);
        p.submit(w, 0, [&order, i] { order.push_back(i); });
    }
    s.runAll();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Conservation, WeightedHistogramTotalsMatchStream)
{
    // The histogram must conserve counts under arbitrary interleaving
    // of weighted and unweighted records plus merges.
    Random rng(2006);
    stats::Histogram total, a, b;
    std::uint64_t n = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.uniformInt(0, 1 << 20);
        const std::uint64_t c = rng.uniformInt(1, 5);
        (rng.chance(0.5) ? a : b).record(v, c);
        total.record(v, c);
        n += c;
    }
    a.merge(b);
    EXPECT_EQ(a.count(), n);
    EXPECT_EQ(total.count(), n);
    EXPECT_EQ(a.percentile(0.5), total.percentile(0.5));
}
