/**
 * @file
 * Bitwise pins for the two kinds of measurement window the golden
 * cells do not reach: Testbed::replaySchedule (Table 4's setting) and
 * runRackExperiment (a capacity search plus a load-point window over
 * a 3-member rack). The golden suite in test_queue_discipline pins
 * measure and measureClosedLoop; the rack and fleet identity tests
 * pin Rack::measure and the fleet bins against those. The expected
 * values are hexfloats captured before the window protocol was
 * shared, so any change to how these windows open, arm or close
 * shows up here as an exact mismatch rather than a drift inside a
 * tolerance.
 */

#include <gtest/gtest.h>

#include "core/rack.hh"
#include "core/testbed.hh"
#include "net/dc_trace.hh"

using namespace snic;
using namespace snic::core;

namespace {

/** One pinned replaySchedule outcome. */
struct ReplayPin
{
    std::uint64_t completed;
    std::uint64_t generated;
    std::uint64_t p50Ticks;
    std::uint64_t p99Ticks;
    double achievedGbps;
    double serverJoules;
    double avgServerWatts;
    /** Sum of the served-rate series over all 300 bins. */
    double seriesSum;
    /** The last pipeline stage's forwarded count. */
    std::uint64_t lastForwarded;
};

/** Table 4's setting: rem_exe_mtu at seed 7 over the seed-7 DC trace
 *  in 2 ms bins (tests/test_paper_shapes.cc Table4TradeOff). */
Measurement
replayTable4(hw::Platform platform)
{
    sim::Random rng(7);
    const auto rates = net::makeDcTrace(net::DcTraceParams{}, rng);
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = platform;
    cfg.seed = 7;
    Testbed bed(cfg);
    return bed.replaySchedule(rates, sim::msToTicks(2.0));
}

void
expectReplayPin(const Measurement &m, const ReplayPin &pin)
{
    EXPECT_EQ(m.completed, pin.completed);
    EXPECT_EQ(m.generated, pin.generated);
    EXPECT_EQ(m.latency.p50(), pin.p50Ticks);
    EXPECT_EQ(m.latency.p99(), pin.p99Ticks);
    EXPECT_EQ(m.achievedGbps, pin.achievedGbps);
    EXPECT_EQ(m.energy.serverJoules, pin.serverJoules);
    EXPECT_EQ(m.energy.avgServerWatts, pin.avgServerWatts);
    ASSERT_EQ(m.servedGbpsSeries.size(), 300u);
    double sum = 0.0;
    for (double v : m.servedGbpsSeries)
        sum += v;
    EXPECT_EQ(sum, pin.seriesSum);
    ASSERT_FALSE(m.stageStats.empty());
    EXPECT_EQ(m.stageStats.back().forwarded, pin.lastForwarded);
}

} // anonymous namespace

TEST(WindowPins, ReplayScheduleHost)
{
    expectReplayPin(replayTable4(hw::Platform::HostCpu),
                    {37870u, 37870u, 4227072u, 4292608u,
                     0x1.83c9eecbfb15bp-1, 0x1.51ee24ad088c3p+7,
                     0x1.18ac47491fc39p+8, 0x1.c670a3d70a3e3p+7,
                     37870u});
}

TEST(WindowPins, ReplayScheduleSnicAccel)
{
    // The last stage forwards two more requests than complete: the
    // 2 ms drain after the schedule moves the stage stats but records
    // no completions.
    expectReplayPin(replayTable4(hw::Platform::SnicAccel),
                    {37764u, 37764u, 19529728u, 21102592u,
                     0x1.82b40f66a5508p-1, 0x1.308cb603d4ee2p+7,
                     0x1.f9e57c98a6985p+7, 0x1.c52b020c49bb5p+7,
                     37766u});
}

TEST(WindowPins, RackExperimentRoundRobin)
{
    RackConfig rc;
    rc.workloadId = "micro_udp_1024";
    rc.servers = 3;
    rc.policy = net::DispatchPolicy::RoundRobin;
    rc.seed = 7;
    ExperimentOptions opts;
    opts.targetSamples = 4000;
    const RackRunResult r = runRackExperiment(rc, opts);

    EXPECT_EQ(r.searchAttempts, 1);
    EXPECT_TRUE(r.saturated);
    EXPECT_EQ(r.maxGbps, 0x1.2e38f86f12069p+6);
    EXPECT_EQ(r.maxRps, 0x1.1976bp+23);
    EXPECT_EQ(r.p99Us, 0x1.882adc4c9c90cp+4);
    EXPECT_EQ(r.p50Us, 0x1.7d9192641b328p+4);
    EXPECT_EQ(r.meanUs, 0x1.7e30d845cbd7p+4);
    EXPECT_EQ(r.rackWatts, 0x1.03c5f30a05b07p+10);
    EXPECT_EQ(r.imbalance, 0x1.000193ad49e28p+0);
    EXPECT_EQ(r.loadPoint.aggregate.completed, 69330u);
    EXPECT_EQ(r.loadPoint.aggregate.latency.p99(), 24510464u);

    const struct
    {
        std::uint64_t completed;
        double serverJoules;
        double achievedGbps;
    } members[] = {
        {23110u, 0x1.bb58d91fc19bfp+1, 0x1.2ee4efd9414f5p+4},
        {23110u, 0x1.bb5887720584p+1, 0x1.2ee4efd9414f5p+4},
        {23110u, 0x1.bb589a82d0e24p+1, 0x1.2ee194daedf7cp+4},
    };
    ASSERT_EQ(r.loadPoint.perServer.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        SCOPED_TRACE(i);
        const Measurement &m = r.loadPoint.perServer[i];
        EXPECT_EQ(m.completed, members[i].completed);
        EXPECT_EQ(m.latency.p99(), 24510464u);
        EXPECT_EQ(m.energy.serverJoules, members[i].serverJoules);
        EXPECT_EQ(m.achievedGbps, members[i].achievedGbps);
    }
}
