/**
 * @file
 * Tests for the rack composition (core/rack.hh): the 1-server
 * PassThrough wiring invariant, aggregate-vs-member accounting,
 * dispatch-policy behaviour, and sweep determinism across runner
 * worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/rack.hh"
#include "core/runner.hh"
#include "core/throughput_search.hh"

using namespace snic;
using namespace snic::core;

namespace {

constexpr const char *kWorkload = "micro_udp_1024";

RackConfig
rackConfig(unsigned servers, net::DispatchPolicy policy,
           std::uint64_t seed = 7)
{
    RackConfig cfg;
    cfg.workloadId = kWorkload;
    cfg.platform = hw::Platform::HostCpu;
    cfg.servers = servers;
    cfg.policy = policy;
    cfg.seed = seed;
    return cfg;
}

void
expectBitwiseEqual(const Measurement &a, const Measurement &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.achievedGbps, b.achievedGbps);
    EXPECT_EQ(a.goodputGbps, b.goodputGbps);
    EXPECT_EQ(a.achievedRps, b.achievedRps);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.min(), b.latency.min());
    EXPECT_EQ(a.latency.max(), b.latency.max());
    EXPECT_EQ(a.latency.p50(), b.latency.p50());
    EXPECT_EQ(a.latency.p99(), b.latency.p99());
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_EQ(a.energy.avgServerWatts, b.energy.avgServerWatts);
    EXPECT_EQ(a.energy.serverJoules, b.energy.serverJoules);
    EXPECT_EQ(a.energy.nicGbps, b.energy.nicGbps);
}

void
expectBitwiseEqual(const RackRunResult &a, const RackRunResult &b)
{
    EXPECT_EQ(a.maxGbps, b.maxGbps);
    EXPECT_EQ(a.maxRps, b.maxRps);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.p50Us, b.p50Us);
    EXPECT_EQ(a.meanUs, b.meanUs);
    EXPECT_EQ(a.rackWatts, b.rackWatts);
    EXPECT_EQ(a.imbalance, b.imbalance);
    EXPECT_EQ(a.searchAttempts, b.searchAttempts);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.loadPoint.aggregate.completed,
              b.loadPoint.aggregate.completed);
    EXPECT_EQ(a.loadPoint.aggregate.latency.p99(),
              b.loadPoint.aggregate.latency.p99());
}

} // anonymous namespace

TEST(Rack, OneServerPassThroughIsBitwiseIdenticalToTestbed)
{
    // The wiring invariant everything else rests on: a 1-server
    // PassThrough rack replays the standalone Testbed's exact event
    // sequence — same RNG stream, same link hops, zero dispatch cost
    // — so every measured number matches bitwise, not approximately.
    const sim::Tick warmup = sim::msToTicks(1.0);
    const sim::Tick window = sim::msToTicks(10.0);
    const double gbps = 12.0;

    TestbedConfig tc;
    tc.workloadId = kWorkload;
    tc.platform = hw::Platform::HostCpu;
    tc.seed = 7;
    Testbed bed(tc);
    const Measurement single = bed.measure(gbps, warmup, window);

    Rack rack(rackConfig(1, net::DispatchPolicy::PassThrough));
    const RackMeasurement rm = rack.measure(gbps, warmup, window);

    ASSERT_EQ(rm.perServer.size(), 1u);
    ASSERT_GT(single.completed, 0u);
    expectBitwiseEqual(rm.perServer[0], single);
    // The aggregate of one member is that member.
    expectBitwiseEqual(rm.aggregate, single);
    EXPECT_EQ(rm.imbalance, 1.0);
}

TEST(Rack, AggregateIsSumOfMembers)
{
    Rack rack(rackConfig(3, net::DispatchPolicy::RoundRobin));
    const RackMeasurement rm =
        rack.measure(30.0, sim::msToTicks(1.0), sim::msToTicks(10.0));

    ASSERT_EQ(rm.perServer.size(), 3u);
    std::uint64_t completed = 0, generated = 0, samples = 0;
    std::uint64_t max_latency = 0;
    double achieved = 0.0, rps = 0.0;
    for (const Measurement &m : rm.perServer) {
        EXPECT_GT(m.completed, 0u);
        completed += m.completed;
        generated += m.generated;
        samples += m.latency.count();
        max_latency = std::max(max_latency, m.latency.max());
        achieved += m.achievedGbps;
        rps += m.achievedRps;
    }
    EXPECT_EQ(rm.aggregate.completed, completed);
    EXPECT_EQ(rm.aggregate.generated, generated);
    EXPECT_EQ(rm.aggregate.latency.count(), samples);
    EXPECT_EQ(rm.aggregate.latency.max(), max_latency);
    EXPECT_DOUBLE_EQ(rm.aggregate.achievedGbps, achieved);
    EXPECT_DOUBLE_EQ(rm.aggregate.achievedRps, rps);
    // The merged p99 lies within the members' latency envelope.
    std::uint64_t min_p99 = ~std::uint64_t(0);
    for (const Measurement &m : rm.perServer)
        min_p99 = std::min(min_p99, m.latency.p99());
    EXPECT_GE(rm.aggregate.latency.p99(), min_p99);
    EXPECT_LE(rm.aggregate.latency.p99(), max_latency);
}

TEST(Rack, RoundRobinBalancesWithinOnePacket)
{
    Rack rack(rackConfig(4, net::DispatchPolicy::RoundRobin));
    const RackMeasurement rm =
        rack.measure(24.0, sim::msToTicks(1.0), sim::msToTicks(5.0));

    ASSERT_EQ(rm.dispatched.size(), 4u);
    const auto [lo, hi] = std::minmax_element(rm.dispatched.begin(),
                                              rm.dispatched.end());
    EXPECT_GT(*lo, 0u);
    EXPECT_LE(*hi - *lo, 1u);
    EXPECT_NEAR(rm.imbalance, 1.0, 1e-3);
}

TEST(Rack, EveryPolicyReachesEveryMember)
{
    for (const auto policy : {net::DispatchPolicy::Random,
                              net::DispatchPolicy::Random2Choice,
                              net::DispatchPolicy::FlowHash,
                              net::DispatchPolicy::LeastQueue}) {
        SCOPED_TRACE(net::dispatchPolicyName(policy));
        Rack rack(rackConfig(4, policy));
        const RackMeasurement rm = rack.measure(
            24.0, sim::msToTicks(1.0), sim::msToTicks(5.0));
        std::uint64_t total = 0;
        for (std::uint64_t d : rm.dispatched) {
            EXPECT_GT(d, 0u);
            total += d;
        }
        EXPECT_GT(total, 1000u);
        EXPECT_GE(rm.imbalance, 1.0);
    }
}

TEST(Rack, HotFlowSkewConcentratesDispatch)
{
    // All hot traffic hashes onto one flow, so the sticky FlowHash
    // policy pins it to one member; the uniform case stays balanced.
    RackConfig uniform = rackConfig(4, net::DispatchPolicy::FlowHash);
    uniform.hotFlowFraction = 0.0;
    Rack fair(uniform);
    const RackMeasurement fair_rm =
        fair.measure(20.0, sim::msToTicks(1.0), sim::msToTicks(5.0));

    RackConfig skewed = uniform;
    skewed.hotFlowFraction = 0.6;
    Rack hot(skewed);
    const RackMeasurement hot_rm =
        hot.measure(20.0, sim::msToTicks(1.0), sim::msToTicks(5.0));

    EXPECT_LT(fair_rm.imbalance, 1.4);
    EXPECT_GT(hot_rm.imbalance, 1.8);
    EXPECT_GT(hot_rm.imbalance, fair_rm.imbalance);
}

TEST(Rack, MeasureTwiceKeepsWindowsIndependent)
{
    Rack rack(rackConfig(2, net::DispatchPolicy::RoundRobin));
    const RackMeasurement first =
        rack.measure(16.0, sim::msToTicks(1.0), sim::msToTicks(5.0));
    const RackMeasurement second =
        rack.measure(16.0, sim::msToTicks(1.0), sim::msToTicks(5.0));
    EXPECT_GT(first.aggregate.completed, 0u);
    EXPECT_GT(second.aggregate.completed, 0u);
    // Steady state: the second window serves a similar volume.
    const double a = static_cast<double>(first.aggregate.completed);
    const double b = static_cast<double>(second.aggregate.completed);
    EXPECT_NEAR(a, b, 0.15 * a);
}

TEST(Rack, EstimateScalesWithServers)
{
    Rack one(rackConfig(1, net::DispatchPolicy::PassThrough));
    Rack two(rackConfig(2, net::DispatchPolicy::RoundRobin));
    const double est1 = one.estimateCapacityRps();
    const double est2 = two.estimateCapacityRps();
    EXPECT_GT(est1, 0.0);
    EXPECT_GT(est2, 1.6 * est1);
    EXPECT_LT(est2, 2.4 * est1);
    EXPECT_GT(one.meanRequestBytes(), 0.0);
}

TEST(Rack, SweepIsBitwiseIdenticalAcrossWorkerCounts)
{
    // Each rack cell owns its Simulation, so worker count and thread
    // scheduling must not leak into any number: serial and 1/2/8
    // worker sweeps are the same bits.
    ExperimentOptions opts;
    opts.targetSamples = 2000;
    std::vector<RackCell> cells;
    for (unsigned servers : {1u, 2u}) {
        RackCell cell;
        cell.config = rackConfig(
            servers, servers == 1 ? net::DispatchPolicy::PassThrough
                                  : net::DispatchPolicy::LeastQueue);
        cell.opts = opts;
        cell.costHint = servers;  // larger racks start first
        cells.push_back(cell);
    }

    std::vector<RackRunResult> serial;
    for (const auto &c : cells)
        serial.push_back(runRackExperiment(c.config, c.opts));

    for (unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(workers);
        ExperimentRunner runner(workers);
        const auto par = runner.runRackCells(cells);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(i);
            // Results land in input order regardless of start order.
            EXPECT_EQ(par[i].config.servers, cells[i].config.servers);
            expectBitwiseEqual(serial[i], par[i]);
        }
    }
}

TEST(Rack, FleetSizingReportsArithmeticAndSimulated)
{
    ExperimentOptions opts;
    opts.targetSamples = 2000;

    // Capacity of one server, measured: the arithmetic baseline.
    Rack probe(rackConfig(1, net::DispatchPolicy::PassThrough));
    const Capacity single = findCapacity(probe, opts);
    ASSERT_GT(single.requestGbps, 0.0);

    const double demand = 1.6 * single.requestGbps;
    const FleetSizing fs = sizeFleetBySimulation(
        rackConfig(4, net::DispatchPolicy::RoundRobin), demand,
        /*p99_budget_us=*/1e6, single.requestGbps, opts);

    EXPECT_EQ(fs.arithmeticServers, 2u);
    EXPECT_TRUE(fs.met);
    EXPECT_GE(fs.simulatedServers, 1u);
    EXPECT_GE(fs.achievedGbps, 0.97 * demand);
    EXPECT_EQ(fs.deltaServers(),
              static_cast<int>(fs.simulatedServers) - 2);
}

TEST(Rack, FleetSizingRejectsImpossibleBudget)
{
    ExperimentOptions opts;
    opts.targetSamples = 1000;
    // A p99 budget below any physical latency cannot be met.
    const FleetSizing fs = sizeFleetBySimulation(
        rackConfig(1, net::DispatchPolicy::RoundRobin),
        /*demand=*/10.0, /*p99_budget_us=*/1e-3,
        /*per_server_gbps=*/20.0, opts);
    EXPECT_FALSE(fs.met);
    EXPECT_EQ(fs.arithmeticServers, 1u);
}

TEST(RackDeath, PassThroughRequiresExactlyOneServer)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        { Rack rack(rackConfig(2, net::DispatchPolicy::PassThrough)); },
        ::testing::ExitedWithCode(1), "");
}

TEST(RackDeath, ZeroServersIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        { Rack rack(rackConfig(0, net::DispatchPolicy::RoundRobin)); },
        ::testing::ExitedWithCode(1), "");
}

TEST(RackDeath, LocalDriveWorkloadsCannotFormARack)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    RackConfig cfg = rackConfig(2, net::DispatchPolicy::RoundRobin);
    cfg.workloadId = "crypto_rsa";  // local-drive: no packets to route
    EXPECT_EXIT({ Rack rack(cfg); },
                ::testing::ExitedWithCode(1), "");
}

TEST(RackDeath, LocalDriveChainIsNamed)
{
    // A chain rack has no workloadId; the message names the chain's
    // first function, the one that cannot take packets.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    RackConfig cfg = rackConfig(2, net::DispatchPolicy::RoundRobin);
    cfg.workloadId.clear();
    cfg.chain.then("comp_app_dec", hw::Platform::HostCpu)
        .then("rem_exe", hw::Platform::HostCpu, 1);
    EXPECT_EXIT({ Rack rack(cfg); }, ::testing::ExitedWithCode(1),
                "workload comp_app_dec is not network-driven");
}

TEST(RackDeath, EndBinWithoutBeginBinIsFatal)
{
    // A bin closes only a window that beginBin armed: once after
    // beginTrace alone, and again after the bin was already closed.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rack rack(rackConfig(2, net::DispatchPolicy::RoundRobin));
    const sim::Tick bin = sim::msToTicks(1.0);
    rack.beginTrace(std::vector<double>(2, 10.0), bin);
    EXPECT_EXIT(rack.endBin(bin), ::testing::ExitedWithCode(1),
                "never armed");
    rack.beginBin();
    rack.sim().runUntil(bin);
    rack.endBin(bin);
    EXPECT_EXIT(rack.endBin(bin), ::testing::ExitedWithCode(1),
                "never armed");
}
