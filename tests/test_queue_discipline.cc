/**
 * @file
 * Queue-discipline tests.
 *
 * Three layers of assurance for the ExecutionPlatform split:
 *
 *  1. Bitwise identity — the Immediate discipline reproduces the
 *     pre-refactor datapath measurement for every workload x
 *     platform cell (golden values captured on the seed tree with
 *     the exact procedure below), and Coalescing{batch=1, window=0}
 *     is bitwise the Immediate discipline.
 *
 *  2. Mechanism units — window timers, batch-full dispatch,
 *     completion fan-out, drain of half-built batches, and the
 *     batching counters, on a bare platform with hand-computable
 *     arithmetic.
 *
 *  3. Paper shapes — with REM coalescing enabled the Fig. 5 floor
 *     rises monotonically with batch size and the throughput
 *     ceiling lands in the paper's ~50 Gbps band, emergent from
 *     queueing rather than baked into per-request constants.
 *
 *  4. Doorbell backpressure — a bounded descriptor ring parks
 *     submitters FIFO, charges the stall upstream, and reports the
 *     ring-full spans; a bounded-but-never-full ring stays bitwise
 *     identical to the unbounded path.
 *
 *  5. Reset-path correctness — drains reset the aggregate batching
 *     counters, completions that straddle a drainAndReset() are
 *     swallowed (never double-counted), and traced windows reclaim
 *     every recorder slot.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "core/testbed.hh"
#include "core/trace.hh"
#include "hw/accelerator.hh"
#include "hw/platform.hh"
#include "hw/queue_discipline.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

using namespace snic;
using namespace snic::core;

namespace {

/** One pre-refactor measurement, captured on the seed tree. */
struct SeedGolden
{
    const char *id;
    hw::Platform platform;
    std::uint64_t completed;
    std::uint64_t samples;
    std::uint64_t p50Ticks;
    std::uint64_t p99Ticks;
    double achievedGbps;
};

/**
 * Golden table: for every workload x supported platform, Testbed
 * {seed=1} measured at 4 Gbps (fio: closed loop, depth 4) for 1 ms
 * warmup + 5 ms window on the pre-discipline datapath. achievedGbps
 * is recorded as a hexfloat so the comparison is bit-exact.
 */
const SeedGolden kSeedGoldens[] = {
    {"micro_udp_64", hw::Platform::HostCpu, 16272u, 16272u, 2055208960u, 3472883712u, 0x1.aa8f8b22de516p+0},
    {"micro_udp_64", hw::Platform::SnicCpu, 2944u, 2944u, 3238002688u, 5536481280u, 0x1.34b365f379dfcp-2},
    {"micro_udp_1024", hw::Platform::HostCpu, 2408u, 2408u, 23848040u, 23949699u, 0x1.f8c8d419c8282p+1},
    {"micro_udp_1024", hw::Platform::SnicCpu, 2417u, 2417u, 40108032u, 61603840u, 0x1.fb1762f3145f3p+1},
    {"micro_dpdk_64", hw::Platform::HostCpu, 38866u, 38866u, 3686400u, 3719168u, 0x1.fd6296ce0d3ebp+1},
    {"micro_dpdk_64", hw::Platform::SnicCpu, 38867u, 38867u, 2867240u, 3031040u, 0x1.fd4e74d819313p+1},
    {"micro_dpdk_1024", hw::Platform::HostCpu, 2407u, 2407u, 3864780u, 3915776u, 0x1.f8fe83fefda18p+1},
    {"micro_dpdk_1024", hw::Platform::SnicCpu, 2408u, 2408u, 3031040u, 3096576u, 0x1.f8fe83fefda18p+1},
    {"micro_rdma_read_1024", hw::Platform::HostCpu, 2407u, 2407u, 5144576u, 5406720u, 0x1.f8fe83fefda18p+1},
    {"micro_rdma_read_1024", hw::Platform::SnicCpu, 2408u, 2408u, 3985440u, 4145152u, 0x1.f8fe83fefda18p+1},
    {"micro_rdma_write_1024", hw::Platform::HostCpu, 2407u, 2407u, 5079040u, 5275648u, 0x1.f8fe83fefda18p+1},
    {"micro_rdma_write_1024", hw::Platform::SnicCpu, 2408u, 2408u, 3915776u, 4046848u, 0x1.f8fe83fefda18p+1},
    {"micro_rdma_send_1024", hw::Platform::HostCpu, 2407u, 2407u, 5275648u, 5996544u, 0x1.f8fe83fefda18p+1},
    {"micro_rdma_send_1024", hw::Platform::SnicCpu, 2407u, 2407u, 4489216u, 6127616u, 0x1.f8fe83fefda18p+1},
    {"redis_a", hw::Platform::HostCpu, 9522u, 9522u, 1786773504u, 3036676096u, 0x1.f354f6d259d48p+0},
    {"redis_a", hw::Platform::SnicCpu, 1768u, 1768u, 3204448256u, 5469372416u, 0x1.71ba577f42d64p-2},
    {"redis_b", hw::Platform::HostCpu, 9474u, 9474u, 1820327936u, 3070230528u, 0x1.f0a87427f0091p+0},
    {"redis_b", hw::Platform::SnicCpu, 1760u, 1760u, 3170893824u, 5402263552u, 0x1.711947cfa26a2p-2},
    {"redis_c", hw::Platform::HostCpu, 9467u, 9467u, 1820327936u, 3103784960u, 0x1.f06558496d316p+0},
    {"redis_c", hw::Platform::SnicCpu, 1760u, 1760u, 3204448256u, 5469372416u, 0x1.711947cfa26a2p-2},
    {"snort_img", hw::Platform::HostCpu, 2491u, 2491u, 24510464u, 24772608u, 0x1.053345a7a9fd9p+2},
    {"snort_img", hw::Platform::SnicCpu, 2250u, 2250u, 379584512u, 725614592u, 0x1.d7dbf487fcb92p+1},
    {"snort_fla", hw::Platform::HostCpu, 2491u, 2491u, 22937600u, 23460599u, 0x1.053345a7a9fd9p+2},
    {"snort_fla", hw::Platform::SnicCpu, 2583u, 2583u, 39059456u, 70778880u, 0x1.0ed8e0d745cc9p+2},
    {"snort_exe", hw::Platform::HostCpu, 2491u, 2491u, 22937600u, 22937600u, 0x1.053345a7a9fd9p+2},
    {"snort_exe", hw::Platform::SnicCpu, 2535u, 2535u, 102236160u, 168820736u, 0x1.09d0635a426bbp+2},
    {"nat_10k", hw::Platform::HostCpu, 2469u, 2469u, 23724032u, 23961475u, 0x1.02c9dedbc309dp+2},
    {"nat_10k", hw::Platform::SnicCpu, 2429u, 2429u, 38535168u, 57933824u, 0x1.fd65f1cc60964p+1},
    {"nat_1m", hw::Platform::HostCpu, 2410u, 2410u, 23986176u, 24510464u, 0x1.f969e3c968944p+1},
    {"nat_1m", hw::Platform::SnicCpu, 2446u, 2446u, 40108032u, 58458112u, 0x1.0060780fdc161p+2},
    {"bm25_100", hw::Platform::HostCpu, 9671u, 9671u, 26083328u, 32636928u, 0x1.fafc8b0079a28p+1},
    {"bm25_100", hw::Platform::SnicCpu, 2467u, 2467u, 2634022912u, 4462739456u, 0x1.02af06e9284d2p+0},
    {"bm25_1k", hw::Platform::HostCpu, 2696u, 2696u, 2533359616u, 4328521728u, 0x1.1ab232ed9315fp+0},
    {"bm25_1k", hw::Platform::SnicCpu, 1026u, 1026u, 3204448256u, 5335154688u, 0x1.ae55e940a0dap-2},
    {"mica_b4", hw::Platform::HostCpu, 39227u, 39227u, 5341184u, 5668864u, 0x1.011fbab06a967p+2},
    {"mica_b4", hw::Platform::SnicCpu, 32272u, 32272u, 616562688u, 1069547520u, 0x1.a6f826edaa92ep+1},
    {"mica_b32", hw::Platform::HostCpu, 4943u, 4943u, 6848512u, 7176192u, 0x1.031a66b3933fep+2},
    {"mica_b32", hw::Platform::SnicCpu, 4924u, 4924u, 7766016u, 8716288u, 0x1.020df73987e11p+2},
    {"fio_read", hw::Platform::HostCpu, 954u, 954u, 23171520u, 23171520u, 0x1.9022f8528c94dp+6},
    {"fio_read", hw::Platform::SnicCpu, 953u, 953u, 32971520u, 32971520u, 0x1.9022f8528c94dp+6},
    {"fio_write", hw::Platform::HostCpu, 954u, 954u, 27471520u, 27471520u, 0x1.9022f8528c94dp+6},
    {"fio_write", hw::Platform::SnicCpu, 953u, 953u, 25071520u, 25071520u, 0x1.9022f8528c94dp+6},
    {"crypto_aes", hw::Platform::HostCpu, 135u, 135u, 8082200u, 8082200u, 0x1.c4fc1df3300dep+1},
    {"crypto_aes", hw::Platform::SnicCpu, 58u, 58u, 2466250752u, 3875536896u, 0x1.853b3dc3afedap+0},
    {"crypto_aes", hw::Platform::SnicAccel, 135u, 135u, 6324224u, 6914048u, 0x1.c4fc1df3300dep+1},
    {"crypto_rsa", hw::Platform::HostCpu, 100u, 100u, 1333788672u, 2365587456u, 0x1.4f8b588e368f1p+1},
    {"crypto_rsa", hw::Platform::SnicCpu, 4u, 4u, 2432696320u, 4789509696u, 0x1.ad7f29abcaf48p-4},
    {"crypto_rsa", hw::Platform::SnicAccel, 52u, 52u, 2332033024u, 3935709251u, 0x1.5cf751db94e6bp+0},
    {"crypto_sha1", hw::Platform::HostCpu, 156u, 156u, 62597400u, 62597400u, 0x1.05b97d64afadp+2},
    {"crypto_sha1", hw::Platform::SnicCpu, 30u, 30u, 3003121664u, 4998926530u, 0x1.92a737110e454p-1},
    {"crypto_sha1", hw::Platform::SnicAccel, 153u, 153u, 10982700u, 10982700u, 0x1.00b0ffe7ac4c2p+2},
    {"rem_img", hw::Platform::HostCpu, 3449u, 3449u, 4227072u, 10027008u, 0x1.041a40f3e6165p+2},
    {"rem_img", hw::Platform::SnicAccel, 3490u, 3490u, 16318464u, 16711680u, 0x1.037b9aab11912p+2},
    {"rem_fla", hw::Platform::HostCpu, 3435u, 3435u, 3325952u, 4292608u, 0x1.f28ce556308e4p+1},
    {"rem_fla", hw::Platform::SnicAccel, 3490u, 3490u, 16318464u, 16711680u, 0x1.037b9aab11912p+2},
    {"rem_exe", hw::Platform::HostCpu, 3435u, 3435u, 3325952u, 4292608u, 0x1.f28ce556308e4p+1},
    {"rem_exe", hw::Platform::SnicAccel, 3490u, 3490u, 16318464u, 16711680u, 0x1.037b9aab11912p+2},
    {"comp_app", hw::Platform::HostCpu, 21u, 21u, 346030080u, 346030080u, 0x1.19db7358bd307p+1},
    {"comp_app", hw::Platform::SnicCpu, 2u, 2u, 3640655872u, 3670331090u, 0x1.ad7f29abcaf48p-3},
    {"comp_app", hw::Platform::SnicAccel, 23u, 23u, 39461840u, 39461840u, 0x1.34b365f379dfcp+1},
    {"comp_txt", hw::Platform::HostCpu, 39u, 39u, 254803968u, 258998272u, 0x1.05b97d64afadp+2},
    {"comp_txt", hw::Platform::SnicCpu, 4u, 4u, 2734686208u, 5235047412u, 0x1.ad7f29abcaf48p-2},
    {"comp_txt", hw::Platform::SnicAccel, 38u, 38u, 39308960u, 39323120u, 0x1.fe07017c01026p+1},
    {"ovs_10", hw::Platform::HostCpu, 1627u, 1627u, 3338395u, 3424256u, 0x1.f4bc6a7ef9db2p+1},
    {"ovs_10", hw::Platform::SnicCpu, 1623u, 1623u, 2605056u, 2670592u, 0x1.f2474538ef34dp+1},
    {"ovs_10", hw::Platform::SnicAccel, 1623u, 1623u, 2605056u, 2670592u, 0x1.f2474538ef34dp+1},
    {"ovs_100", hw::Platform::HostCpu, 1627u, 1627u, 3338395u, 3424256u, 0x1.f4bc6a7ef9db2p+1},
    {"ovs_100", hw::Platform::SnicCpu, 1623u, 1623u, 2605056u, 2670592u, 0x1.f2474538ef34dp+1},
    {"ovs_100", hw::Platform::SnicAccel, 1623u, 1623u, 2605056u, 2670592u, 0x1.f2474538ef34dp+1},
    {"rem_img_mtu", hw::Platform::HostCpu, 1626u, 1626u, 6586368u, 6782976u, 0x1.f381d7dbf488p+1},
    {"rem_img_mtu", hw::Platform::SnicAccel, 1757u, 1757u, 16640500u, 16711680u, 0x1.0de00d1b71759p+2},
    {"rem_fla_mtu", hw::Platform::HostCpu, 1652u, 1652u, 4227072u, 4423680u, 0x1.fb7e90ff97247p+1},
    {"rem_fla_mtu", hw::Platform::SnicAccel, 1757u, 1757u, 16640500u, 16711680u, 0x1.0de00d1b71759p+2},
    {"rem_exe_mtu", hw::Platform::HostCpu, 1652u, 1652u, 4227072u, 4423680u, 0x1.fb7e90ff97247p+1},
    {"rem_exe_mtu", hw::Platform::SnicAccel, 1757u, 1757u, 16640500u, 16711680u, 0x1.0de00d1b71759p+2},
    {"comp_app_dec", hw::Platform::HostCpu, 23u, 23u, 28966912u, 29124610u, 0x1.34b365f379dfcp+1},
    {"comp_app_dec", hw::Platform::SnicCpu, 25u, 25u, 509607936u, 842647837u, 0x1.4f8b588e368f1p+1},
    {"comp_app_dec", hw::Platform::SnicAccel, 23u, 23u, 25802000u, 25802000u, 0x1.34b365f379dfcp+1},
    {"comp_txt_dec", hw::Platform::HostCpu, 40u, 40u, 24510464u, 26869760u, 0x1.0c6f7a0b5ed8dp+2},
    {"comp_txt_dec", hw::Platform::SnicCpu, 39u, 39u, 308281344u, 484442112u, 0x1.05b97d64afadp+2},
    {"comp_txt_dec", hw::Platform::SnicAccel, 40u, 40u, 25296896u, 27656192u, 0x1.0c6f7a0b5ed8dp+2},
    {"micro_rdma_read_64", hw::Platform::HostCpu, 20661u, 20661u, 1652555776u, 2768240640u, 0x1.0ececfdc4bc5dp+1},
    {"micro_rdma_read_64", hw::Platform::SnicCpu, 29138u, 29138u, 884998144u, 1484783616u, 0x1.7deae76a0704dp+1},
    {"micro_rdma_write_64", hw::Platform::HostCpu, 20661u, 20661u, 1652555776u, 2768240640u, 0x1.0ececfdc4bc5dp+1},
    {"micro_rdma_write_64", hw::Platform::SnicCpu, 29138u, 29138u, 884998144u, 1484783616u, 0x1.7deae76a0704dp+1},
    {"micro_rdma_send_64", hw::Platform::HostCpu, 11325u, 11325u, 2466250752u, 4211081216u, 0x1.28e0c9d9d3459p+0},
    {"micro_rdma_send_64", hw::Platform::SnicCpu, 6767u, 6767u, 2902458368u, 4932501504u, 0x1.62c922f420cebp-1},
};

/** The golden capture procedure, replayed on the refactored tree. */
Measurement
measureLikeSeed(const std::string &id, hw::Platform platform,
                AccelQueueing queueing,
                hw::BatchConfig override_cfg = {})
{
    TestbedConfig cfg;
    cfg.workloadId = id;
    cfg.platform = platform;
    cfg.seed = 1;
    cfg.accelQueueing = queueing;
    cfg.accelBatchOverride = override_cfg;
    Testbed bed(cfg);
    if (bed.workload().spec().family == "fio") {
        return bed.measureClosedLoop(4, sim::msToTicks(1.0),
                                     sim::msToTicks(5.0));
    }
    return bed.measure(4.0, sim::msToTicks(1.0), sim::msToTicks(5.0));
}

std::string
goldenName(const ::testing::TestParamInfo<SeedGolden> &info)
{
    std::string name = info.param.id;
    name += '_';
    name += hw::platformName(info.param.platform);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // anonymous namespace

class ImmediateIdentity
    : public ::testing::TestWithParam<SeedGolden>
{};

/** The tentpole acceptance bar: with the Immediate discipline every
 *  measured number is bitwise identical to the pre-refactor
 *  datapath. */
TEST_P(ImmediateIdentity, ReproducesSeedMeasurementExactly)
{
    const SeedGolden &g = GetParam();
    const Measurement m = measureLikeSeed(
        g.id, g.platform, AccelQueueing::ForceImmediate);
    EXPECT_EQ(m.completed, g.completed);
    EXPECT_EQ(m.latency.count(), g.samples);
    EXPECT_EQ(m.latency.p50(), g.p50Ticks);
    EXPECT_EQ(m.latency.p99(), g.p99Ticks);
    // Bit-exact, not approximate: the golden is a hexfloat.
    EXPECT_EQ(m.achievedGbps, g.achievedGbps);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadPlatformCells, ImmediateIdentity,
                         ::testing::ValuesIn(kSeedGoldens),
                         goldenName);

/** Coalescing{batch=1, window=0, inherited setup/pipeline} must be
 *  bit-for-bit the Immediate discipline: IEEE addition gives
 *  (0 + raw) + setup == raw + setup, and the synchronous dispatch
 *  path schedules the same events in the same order. */
TEST(CoalescingIdentity, Batch1Window0IsBitwiseImmediate)
{
    const struct
    {
        const char *id;
        hw::Platform platform;
    } cells[] = {
        {"rem_exe_mtu", hw::Platform::SnicAccel},
        {"comp_txt", hw::Platform::SnicAccel},
        {"crypto_rsa", hw::Platform::SnicAccel},
        {"rem_img", hw::Platform::SnicAccel},
    };
    for (const auto &c : cells) {
        SCOPED_TRACE(c.id);
        const Measurement a = measureLikeSeed(
            c.id, c.platform, AccelQueueing::ForceImmediate);
        // Defaulted BatchConfig: maxBatch 1, window 0, setup and
        // pipeline inherited from the engine.
        const Measurement b = measureLikeSeed(
            c.id, c.platform, AccelQueueing::ForceCoalescing,
            hw::BatchConfig{});
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.latency.count(), b.latency.count());
        EXPECT_EQ(a.latency.p50(), b.latency.p50());
        EXPECT_EQ(a.latency.p99(), b.latency.p99());
        EXPECT_EQ(a.latency.mean(), b.latency.mean());
        EXPECT_EQ(a.achievedGbps, b.achievedGbps);
        EXPECT_EQ(a.goodputGbps, b.goodputGbps);
    }
}

// --- Mechanism units on a bare platform -------------------------

namespace {

/** 1-worker platform charging 100 ns per message + 50 ns setup. */
hw::ExecutionPlatform
makeUnitPlatform(sim::Simulation &sim, double pipeline_ns = 0.0)
{
    hw::CostModel costs;
    costs.perMessage = 100.0;
    return hw::ExecutionPlatform(sim, "unit", 1, costs,
                                 /*setup_ns=*/50.0, pipeline_ns);
}

alg::WorkCounters
oneMessage()
{
    alg::WorkCounters w;
    w.messages = 1;
    return w;
}

} // anonymous namespace

TEST(CoalescingUnit, WindowTimerDispatchesPartialBatch)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 4;
    cfg.coalesceWindowNs = 1000.0;
    p.setDiscipline(hw::makeCoalescing(cfg));

    sim::Tick done_at = 0;
    p.submit(oneMessage(), 0, [&] { done_at = sim.now(); });
    EXPECT_EQ(p.discipline().pending(), 1u);
    sim.runAll();

    // Timer fires 1000 ns after the lone member arrived; the batch
    // charges one inherited 50 ns setup plus one 100 ns message.
    EXPECT_EQ(done_at, sim::nsToTicks(1150.0));
    EXPECT_EQ(p.completedCount(), 1u);
    const auto snap = p.discipline().batching();
    EXPECT_EQ(snap.batches, 1u);
    EXPECT_EQ(snap.timerDispatches, 1u);
    EXPECT_EQ(snap.fullDispatches, 0u);
}

TEST(CoalescingUnit, FullBatchDispatchesWithoutWaitingForTheWindow)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1e6;  // far beyond the horizon
    cfg.batchSetupNs = 300.0;
    p.setDiscipline(hw::makeCoalescing(cfg));

    std::vector<sim::Tick> done;
    for (int i = 0; i < 2; ++i)
        p.submit(oneMessage(), 0, [&] { done.push_back(sim.now()); });
    sim.runAll();

    // Both members fan out at the same tick: one 300 ns batch setup
    // plus two 100 ns messages, posted the instant the batch filled.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], sim::nsToTicks(500.0));
    EXPECT_EQ(done[1], done[0]);
    const auto snap = p.discipline().batching();
    EXPECT_EQ(snap.fullDispatches, 1u);
    EXPECT_EQ(snap.timerDispatches, 0u);
    EXPECT_EQ(snap.maxOccupancy, 2u);
}

TEST(CoalescingUnit, BatchedPipelineOverrideReplacesPlatformPipeline)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim, /*pipeline_ns=*/5000.0);
    hw::BatchConfig cfg;
    cfg.maxBatch = 1;
    cfg.batchedPipelineNs = 700.0;
    p.setDiscipline(hw::makeCoalescing(cfg));

    sim::Tick done_at = 0;
    p.submit(oneMessage(), 0, [&] { done_at = sim.now(); });
    sim.runAll();
    // 150 ns busy + the 700 ns override, not the platform's 5 us.
    EXPECT_EQ(done_at, sim::nsToTicks(850.0));
}

TEST(CoalescingUnit, DrainDiscardsHalfBuiltBatchWithoutCompleting)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 8;
    cfg.coalesceWindowNs = 2000.0;
    p.setDiscipline(hw::makeCoalescing(cfg));

    bool completed = false;
    p.submit(oneMessage(), 0, [&] { completed = true; });
    EXPECT_EQ(p.discipline().pending(), 1u);

    p.drainAndReset();
    EXPECT_EQ(p.discipline().pending(), 0u);

    // The armed window timer still fires — as a stale no-op.
    sim.runAll();
    EXPECT_FALSE(completed);
    EXPECT_EQ(p.completedCount(), 0u);
    EXPECT_EQ(p.discipline().batching().batches, 0u);
}

TEST(CoalescingUnit, DrainedQueueAcceptsFreshSubmissions)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1000.0;
    p.setDiscipline(hw::makeCoalescing(cfg));

    p.submit(oneMessage(), 0, nullptr);
    p.drainAndReset();

    // A fresh window must form around the new first member.
    sim::Tick done_at = 0;
    p.submit(oneMessage(), 0, [&] { done_at = sim.now(); });
    sim.runAll();
    EXPECT_EQ(done_at, sim::nsToTicks(1150.0));
    EXPECT_EQ(p.completedCount(), 1u);
}

TEST(CoalescingUnit, SetupAmortizationRaisesBacklogThroughput)
{
    // 64 jobs arriving at once, setup-dominated: coalescing into
    // 32-job batches pays 2 setups instead of 64.
    hw::CostModel costs;
    costs.perMessage = 10.0;

    sim::Simulation sim_imm;
    hw::ExecutionPlatform imm(sim_imm, "imm", 1, costs, 1000.0);
    sim::Tick imm_last = 0;
    for (int i = 0; i < 64; ++i)
        imm.submit(oneMessage(), 0, [&] { imm_last = sim_imm.now(); });
    sim_imm.runAll();

    sim::Simulation sim_coal;
    hw::ExecutionPlatform coal(sim_coal, "coal", 1, costs, 1000.0);
    hw::BatchConfig cfg;
    cfg.maxBatch = 32;
    cfg.coalesceWindowNs = 1e6;
    cfg.batchSetupNs = 1000.0;
    coal.setDiscipline(hw::makeCoalescing(cfg));
    sim::Tick coal_last = 0;
    for (int i = 0; i < 64; ++i) {
        coal.submit(oneMessage(), 0,
                    [&] { coal_last = sim_coal.now(); });
    }
    sim_coal.runAll();

    EXPECT_EQ(imm_last, sim::nsToTicks(64.0 * 1010.0));
    EXPECT_EQ(coal_last, sim::nsToTicks(2.0 * (1000.0 + 320.0)));
    EXPECT_LT(coal_last, imm_last / 20);
}

TEST(CoalescingUnit, DispatchHookReportsFormationAndServiceStart)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1e6;
    p.setDiscipline(hw::makeCoalescing(cfg));

    struct Obs
    {
        sim::Tick admitted;
        sim::Tick dispatched;
        sim::Tick serviceStart;
        unsigned batch;
    };
    std::vector<Obs> obs;
    auto hook = [&](sim::Tick a, sim::Tick d, sim::Tick s,
                    unsigned n) {
        obs.push_back({a, d, s, n});
    };

    // Fill one batch at t=0 so the hooked batch queues behind it:
    // inherited 50 ns setup + 2 x 100 ns keeps the worker busy until
    // 250 ns.
    p.submit(oneMessage(), 0, nullptr);
    p.submit(oneMessage(), 0, nullptr);
    sim.runUntil(sim::nsToTicks(40.0));
    p.submit(oneMessage(), 0, nullptr, hook);
    sim.runUntil(sim::nsToTicks(60.0));
    p.submit(oneMessage(), 0, nullptr, hook);  // batch fills here
    sim.runAll();

    ASSERT_EQ(obs.size(), 2u);
    // Both members observe the same dispatch instant (t=60 ns, when
    // the batch filled) and the same deferred service start (t=250,
    // behind the in-flight first batch). With an unbounded ring each
    // admission is the member's own submit tick.
    EXPECT_EQ(obs[0].admitted, sim::nsToTicks(40.0));
    EXPECT_EQ(obs[1].admitted, sim::nsToTicks(60.0));
    EXPECT_EQ(obs[0].dispatched, sim::nsToTicks(60.0));
    EXPECT_EQ(obs[1].dispatched, sim::nsToTicks(60.0));
    EXPECT_EQ(obs[0].serviceStart, sim::nsToTicks(250.0));
    EXPECT_EQ(obs[0].batch, 2u);
    EXPECT_EQ(obs[1].batch, 2u);
}

// --- Paper shapes: the emergent Fig. 5 floor and KO3 ceiling ----

TEST(RemBatchingShape, LatencyFloorRisesMonotonicallyWithBatchSize)
{
    // Hold the coalesce window long (50 us) so batch-fill time
    // dominates the floor, and sweep the job size at a fixed 10 Gbps
    // low load: the floor must rise with every batch-size step —
    // the latency/throughput knob the RXP engine exposes.
    double prev_p50 = 0.0;
    for (unsigned batch : {1u, 8u, 32u}) {
        TestbedConfig cfg;
        cfg.workloadId = "rem_exe_mtu";
        cfg.platform = hw::Platform::SnicAccel;
        cfg.accelQueueing = AccelQueueing::ForceCoalescing;
        cfg.accelBatchOverride.maxBatch = batch;
        cfg.accelBatchOverride.coalesceWindowNs = 50000.0;
        cfg.accelBatchOverride.batchSetupNs = 90.0 * batch;
        cfg.accelBatchOverride.batchedPipelineNs = 10000.0;
        Testbed bed(cfg);
        const Measurement m = bed.measure(10.0, sim::msToTicks(1.0),
                                          sim::msToTicks(5.0));
        EXPECT_GT(m.p50Us(), prev_p50)
            << "floor did not rise at batch " << batch;
        prev_p50 = m.p50Us();
    }
    // Full 32-packet jobs at 10 Gbps spend tens of microseconds
    // filling: far above the ~13 us unbatched floor.
    EXPECT_GT(prev_p50, 35.0);
}

TEST(RemBatchingShape, ThroughputCeilingLandsInPaperBand)
{
    // Default REM coalescing (the workload's own DOCA parameters) at
    // 60 Gbps offered: the engine must saturate inside the paper's
    // ~50 Gbps band (KO3) with a deep saturation tail.
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    Testbed bed(cfg);
    const Measurement m = bed.measure(60.0, sim::msToTicks(1.0),
                                      sim::msToTicks(5.0));
    EXPECT_GT(m.achievedGbps, 40.0);
    EXPECT_LT(m.achievedGbps, 55.0);
    EXPECT_GT(m.p99Us(), 100.0);
}

TEST(RemBatchingShape, LowLoadFloorNearPaperAnchor)
{
    // At 10 Gbps (far below the knee) the default coalescing path
    // sits at the paper's ~20-25 us floor: coalesce window + batch
    // service + batched pipeline + wire, emergent from queueing.
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    Testbed bed(cfg);
    const Measurement m = bed.measure(10.0, sim::msToTicks(1.0),
                                      sim::msToTicks(5.0));
    EXPECT_GT(m.p99Us(), 15.0);
    EXPECT_LT(m.p99Us(), 35.0);
}

// --- Traced coalesced requests ----------------------------------

TEST(CoalescedTracing, BatchFormationIsADistinctTraceInterval)
{
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    Testbed bed(cfg);
    bed.enableTracing(8);
    const Measurement m = bed.measure(10.0, sim::msToTicks(1.0),
                                      sim::msToTicks(5.0));
    ASSERT_FALSE(m.slowestTraces.empty());

    bool saw_accel_hop = false;
    bool saw_batch_stall = false;
    for (const RequestTrace &t : m.slowestTraces) {
        for (std::uint8_t i = 0; i < t.hopCount; ++i) {
            const TraceHop &hop = t.hops[i];
            // Every hop's intervals tile its residency exactly.
            EXPECT_LE(hop.entered, hop.dispatched);
            EXPECT_LE(hop.dispatched, hop.serviceStarted);
            EXPECT_LE(hop.serviceStarted, hop.exited);
            EXPECT_EQ(hop.batchStall() + hop.queueWait() +
                          hop.serviceTime(),
                      hop.residency());
            if (hop.stage == 3) {  // accelerator
                saw_accel_hop = true;
                if (hop.batchStall() > 0)
                    saw_batch_stall = true;
            }
        }
    }
    EXPECT_TRUE(saw_accel_hop);
    // At 10 Gbps most batches dispatch on the window timer, so the
    // tail must contain requests that waited out batch formation.
    EXPECT_TRUE(saw_batch_stall);

    // The tail attribution buckets the accelerator's residency by
    // cause, and with a 4 us window on a ~20 us floor the stall
    // share is material.
    const TailAttribution a = attributeTail(m.slowestTraces);
    EXPECT_EQ(a.stage, 3);
    EXPECT_GT(a.batchStallShare, 0.0);
    EXPECT_GT(a.serviceShare, 0.0);
    const double sum =
        a.batchStallShare + a.queueShare + a.serviceShare;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(CoalescedTracing, TracingDoesNotPerturbCoalescedMeasurements)
{
    auto run = [](bool traced) {
        TestbedConfig cfg;
        cfg.workloadId = "rem_exe_mtu";
        cfg.platform = hw::Platform::SnicAccel;
        Testbed bed(cfg);
        if (traced)
            bed.enableTracing(8);
        return bed.measure(20.0, sim::msToTicks(1.0),
                           sim::msToTicks(5.0));
    };
    const Measurement a = run(false);
    const Measurement b = run(true);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.p50(), b.latency.p50());
    EXPECT_EQ(a.latency.p99(), b.latency.p99());
    EXPECT_EQ(a.achievedGbps, b.achievedGbps);
}

TEST(CoalescedStats, AcceleratorStageRecordsOccupancyAndStall)
{
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    Testbed bed(cfg);
    const Measurement m = bed.measure(20.0, sim::msToTicks(1.0),
                                      sim::msToTicks(5.0));
    const StageSnapshot &accel = m.stageStats[3];
    EXPECT_EQ(accel.name, "accelerator");
    EXPECT_GT(accel.meanBatchOccupancy, 1.0);
    EXPECT_LE(accel.maxBatchOccupancy, 32u);
    EXPECT_GT(accel.meanBatchStallUs, 0.0);

    // The Immediate path reports singleton batches and no stall.
    cfg.accelQueueing = AccelQueueing::ForceImmediate;
    Testbed imm(cfg);
    const Measurement mi = imm.measure(20.0, sim::msToTicks(1.0),
                                       sim::msToTicks(5.0));
    const StageSnapshot &ia = mi.stageStats[3];
    EXPECT_DOUBLE_EQ(ia.meanBatchOccupancy, 1.0);
    EXPECT_EQ(ia.maxBatchOccupancy, 1u);
    EXPECT_DOUBLE_EQ(ia.meanBatchStallUs, 0.0);
}

TEST(CoalescedStats, WindowResetClearsHalfBuiltBatches)
{
    // A measurement window that ends mid-batch must not leak those
    // members into the next window: openWindow() drains the engine
    // queue, so a reused testbed measures like a fresh one.
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    Testbed reused(cfg);
    (void)reused.measure(50.0, sim::msToTicks(1.0),
                         sim::msToTicks(2.0));
    const Measurement second = reused.measure(
        10.0, sim::msToTicks(1.0), sim::msToTicks(5.0));

    Testbed fresh(cfg);
    const Measurement base = fresh.measure(10.0, sim::msToTicks(1.0),
                                           sim::msToTicks(5.0));
    // Same operating point within a tight envelope (the RNG streams
    // differ after the first window, so not bitwise).
    EXPECT_NEAR(second.p99Us(), base.p99Us(), base.p99Us() * 0.15);
    EXPECT_NEAR(second.achievedGbps, base.achievedGbps,
                base.achievedGbps * 0.05);
}

// --- Doorbell backpressure on a bare platform -------------------

TEST(DoorbellUnit, FullRingParksAndAdmitsInFifoOrder)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.queueDepth = 2;  // maxBatch 1, window 0: immediate, bounded
    p.setDiscipline(hw::makeCoalescing(cfg));

    // Four submissions at t=0 on one worker charging 150 ns each
    // (inherited 50 ns setup + 100 ns message): the first two hold
    // the ring, the last two park at the doorbell.
    std::vector<int> order;
    std::array<sim::Tick, 4> done{};
    struct Adm
    {
        sim::Tick parked;
        sim::Tick admitted;
    };
    std::vector<Adm> adm;
    for (int i = 0; i < 4; ++i) {
        p.submit(oneMessage(), 0,
                 [&, i] {
                     order.push_back(i);
                     done[static_cast<std::size_t>(i)] = sim.now();
                 },
                 nullptr, nullptr,
                 [&](sim::Tick parked_at, sim::Tick admitted_at) {
                     adm.push_back({parked_at, admitted_at});
                 });
    }
    EXPECT_EQ(p.ringOccupancy(), 2u);
    {
        const hw::RingSnapshot s = p.ringSnapshot();
        EXPECT_EQ(s.waitingNow, 2u);
        EXPECT_EQ(s.maxWaiting, 2u);
    }
    sim.runAll();

    // FIFO admission: each completion frees one slot for the oldest
    // parked submission, so service strictly serializes.
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(done[0], sim::nsToTicks(150.0));
    EXPECT_EQ(done[1], sim::nsToTicks(300.0));
    EXPECT_EQ(done[2], sim::nsToTicks(450.0));
    EXPECT_EQ(done[3], sim::nsToTicks(600.0));

    // The admission hook reports each parked submission's stall.
    ASSERT_EQ(adm.size(), 2u);
    EXPECT_EQ(adm[0].parked, 0u);
    EXPECT_EQ(adm[0].admitted, sim::nsToTicks(150.0));
    EXPECT_EQ(adm[1].parked, 0u);
    EXPECT_EQ(adm[1].admitted, sim::nsToTicks(300.0));

    const hw::RingSnapshot s = p.ringSnapshot();
    EXPECT_TRUE(s.bounded());
    EXPECT_EQ(s.depth, 2u);
    EXPECT_EQ(s.admissions, 4u);
    EXPECT_EQ(s.parked, 2u);
    EXPECT_DOUBLE_EQ(s.parkedShare(), 0.5);
    EXPECT_EQ(s.waitingNow, 0u);
    EXPECT_EQ(s.stall.count(), 2u);
    EXPECT_EQ(s.stall.min(), sim::nsToTicks(150.0));
    EXPECT_EQ(s.stall.max(), sim::nsToTicks(300.0));
    // Ring full from the second admission until the third completion
    // frees a slot for good: [0,150] + [150,300] + [300,450].
    EXPECT_EQ(s.fullTicks, sim::nsToTicks(450.0));
    const auto spans = p.ringFullSpans();
    ASSERT_EQ(spans.size(), 3u);
    sim::Tick sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_LT(spans[i].begin, spans[i].end);
        if (i)
            EXPECT_LE(spans[i - 1].end, spans[i].begin);
        sum += spans[i].end - spans[i].begin;
    }
    EXPECT_EQ(sum, s.fullTicks);
}

TEST(DoorbellUnit, UnboundedRingNeverParks)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1000.0;
    p.setDiscipline(hw::makeCoalescing(cfg));

    unsigned admitted_hook_fired = 0;
    for (int i = 0; i < 16; ++i) {
        p.submit(oneMessage(), 0, nullptr, nullptr, nullptr,
                 [&](sim::Tick, sim::Tick) { ++admitted_hook_fired; });
    }
    sim.runAll();

    const hw::RingSnapshot s = p.ringSnapshot();
    EXPECT_FALSE(s.bounded());
    EXPECT_EQ(s.admissions, 16u);
    EXPECT_EQ(s.parked, 0u);
    EXPECT_EQ(s.maxWaiting, 0u);
    EXPECT_EQ(s.stall.count(), 0u);
    EXPECT_EQ(s.fullTicks, 0u);
    EXPECT_TRUE(p.ringFullSpans().empty());
    // The admission hook only fires for parked submissions.
    EXPECT_EQ(admitted_hook_fired, 0u);
    EXPECT_EQ(p.completedCount(), 16u);
}

TEST(DoorbellUnit, ChargeStallOccupiesAWorkerWithoutCompleting)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);

    const double idle = p.busyIntegral();
    p.chargeStall(0, sim::nsToTicks(400.0));
    // The charge holds the worker but never completes a request —
    // exactly a core spinning on a blocked doorbell.
    p.submit(oneMessage(), 0, nullptr);
    sim.runAll();
    EXPECT_EQ(p.completedCount(), 1u);
    // 400 ns stall + 150 ns real service of busy time.
    EXPECT_NEAR(p.busyIntegral() - idle,
                sim::ticksToSec(sim::nsToTicks(550.0)), 1e-12);

    // Zero-length stalls are free.
    const double before = p.busyIntegral();
    p.chargeStall(0, 0);
    EXPECT_DOUBLE_EQ(p.busyIntegral(), before);
}

TEST(DoorbellUnit, DrainDropsParkedSubmissionsAndSwallowsInFlight)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.queueDepth = 1;
    p.setDiscipline(hw::makeCoalescing(cfg));

    unsigned completions = 0;
    unsigned drops = 0;
    auto done = [&] { ++completions; };
    auto dropped = [&] { ++drops; };
    p.submit(oneMessage(), 0, done, nullptr, dropped);  // in service
    p.submit(oneMessage(), 0, done, nullptr, dropped);  // parked
    EXPECT_EQ(p.ringSnapshot().waitingNow, 1u);

    p.drainAndReset();
    // The parked submission is dropped synchronously; the in-flight
    // completion is swallowed when its event fires.
    EXPECT_EQ(drops, 1u);
    sim.runAll();
    EXPECT_EQ(drops, 2u);
    EXPECT_EQ(completions, 0u);
    EXPECT_EQ(p.completedCount(), 0u);
    EXPECT_EQ(p.ringSnapshot().waitingNow, 0u);

    // The drained platform admits and serves fresh work normally.
    sim::Tick fresh_done = 0;
    p.submit(oneMessage(), 0, [&] { fresh_done = sim.now(); });
    sim.runAll();
    EXPECT_EQ(p.completedCount(), 1u);
    EXPECT_GT(fresh_done, 0u);
}

TEST(DoorbellUnit, ResetRingStatsIsStatsOnly)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.queueDepth = 1;
    p.setDiscipline(hw::makeCoalescing(cfg));

    std::vector<sim::Tick> done;
    for (int i = 0; i < 3; ++i)
        p.submit(oneMessage(), 0, [&] { done.push_back(sim.now()); });
    // Mid-run stats reset: the parked submissions and the event
    // schedule are untouched; only the counters restart (and the
    // wait-list high-water re-anchors to the current backlog).
    p.resetRingStats();
    const hw::RingSnapshot mid = p.ringSnapshot();
    EXPECT_EQ(mid.admissions, 0u);
    EXPECT_EQ(mid.parked, 0u);
    EXPECT_EQ(mid.waitingNow, 2u);
    EXPECT_EQ(mid.maxWaiting, 2u);

    sim.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], sim::nsToTicks(150.0));
    EXPECT_EQ(done[1], sim::nsToTicks(300.0));
    EXPECT_EQ(done[2], sim::nsToTicks(450.0));
    // Both parked admissions happened after the reset, so the new
    // window observed them.
    const hw::RingSnapshot s = p.ringSnapshot();
    EXPECT_EQ(s.admissions, 2u);
    EXPECT_EQ(s.parked, 2u);
    EXPECT_EQ(s.stall.count(), 2u);
}

// --- Reset-path correctness (the two bugfix satellites) ---------

TEST(ResetPathUnit, DrainResetsAggregateBatchingCounters)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1e6;
    p.setDiscipline(hw::makeCoalescing(cfg));

    // Warmup traffic: one full batch dispatched.
    p.submit(oneMessage(), 0, nullptr);
    p.submit(oneMessage(), 0, nullptr);
    EXPECT_EQ(p.discipline().batching().batches, 1u);
    EXPECT_EQ(p.discipline().batching().fullDispatches, 1u);

    // The window boundary drains — and must also reset the aggregate
    // counters, or the next window's snapshot double-counts warmup.
    p.drainAndReset();
    {
        const hw::BatchingSnapshot s = p.discipline().batching();
        EXPECT_EQ(s.batches, 0u);
        EXPECT_EQ(s.members, 0u);
        EXPECT_EQ(s.fullDispatches, 0u);
        EXPECT_EQ(s.timerDispatches, 0u);
        EXPECT_EQ(s.maxOccupancy, 0u);
    }

    // Measure: the snapshot reflects this window only.
    p.submit(oneMessage(), 0, nullptr);
    p.submit(oneMessage(), 0, nullptr);
    sim.runAll();
    const hw::BatchingSnapshot s = p.discipline().batching();
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.members, 2u);
    EXPECT_EQ(s.fullDispatches, 1u);
}

TEST(ResetPathUnit, ResetBatchingStatsKeepsPendingMembers)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1e6;
    p.setDiscipline(hw::makeCoalescing(cfg));

    // A half-built batch straddles the stats reset: the member must
    // survive (stats-only reset, no schedule perturbation) and count
    // toward the batch formed after the boundary.
    p.submit(oneMessage(), 0, nullptr);
    p.discipline().resetBatchingStats();
    EXPECT_EQ(p.discipline().pending(), 1u);
    p.submit(oneMessage(), 0, nullptr);
    sim.runAll();
    const hw::BatchingSnapshot s = p.discipline().batching();
    EXPECT_EQ(s.batches, 1u);
    EXPECT_EQ(s.members, 2u);
    EXPECT_EQ(p.completedCount(), 2u);
}

TEST(ResetPathUnit, StraddlingCompletionIsSwallowed)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);

    // An Immediate-path completion in flight at the reset: the epoch
    // guard swallows it (dropped, not done), so completedCount()
    // counts only the new window's work.
    unsigned completions = 0;
    unsigned drops = 0;
    p.submit(oneMessage(), 0, [&] { ++completions; }, nullptr,
             [&] { ++drops; });
    sim.runUntil(sim::nsToTicks(50.0));
    p.drainAndReset();

    sim::Tick fresh_done = 0;
    p.submit(oneMessage(), 0, [&] { fresh_done = sim.now(); });
    sim.runAll();
    EXPECT_EQ(drops, 1u);
    EXPECT_EQ(completions, 0u);
    EXPECT_EQ(p.completedCount(), 1u);
    // The fresh submission found a zeroed worker horizon.
    EXPECT_EQ(fresh_done, sim::nsToTicks(50.0 + 150.0));
}

TEST(ResetPathUnit, StraddlingBatchCompletionIsSwallowed)
{
    sim::Simulation sim;
    auto p = makeUnitPlatform(sim);
    hw::BatchConfig cfg;
    cfg.maxBatch = 2;
    cfg.coalesceWindowNs = 1e6;
    p.setDiscipline(hw::makeCoalescing(cfg));

    // A dispatched batch (fan-out at 250 ns: 50 setup + 2 x 100)
    // straddles a drain at 100 ns: both members are swallowed via
    // their dropped callbacks and nothing is counted.
    unsigned completions = 0;
    unsigned drops = 0;
    for (int i = 0; i < 2; ++i) {
        p.submit(oneMessage(), 0, [&] { ++completions; }, nullptr,
                 [&] { ++drops; });
    }
    sim.runUntil(sim::nsToTicks(100.0));
    p.drainAndReset();
    sim.runAll();
    EXPECT_EQ(drops, 2u);
    EXPECT_EQ(completions, 0u);
    EXPECT_EQ(p.completedCount(), 0u);
}

// --- BatchConfig validation at install --------------------------

TEST(BatchConfigDeath, ZeroMaxBatchIsRejectedAtInstall)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    hw::BatchConfig cfg;
    cfg.maxBatch = 0;
    EXPECT_EXIT({ auto d = hw::makeCoalescing(cfg); },
                ::testing::ExitedWithCode(1), "");
}

TEST(BatchConfigDeath, ZeroQueueDepthIsRejectedAtInstall)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    hw::BatchConfig cfg;
    cfg.queueDepth = 0;
    EXPECT_EXIT({ auto d = hw::makeCoalescing(cfg); },
                ::testing::ExitedWithCode(1), "");
}

// --- Bounded-ring identity and the REM backpressure shape -------

TEST(CoalescingIdentity, BoundedButNeverFullRingIsBitwiseIdentity)
{
    // A descriptor ring far deeper than the occupancy ever reaches
    // must replay the unbounded schedule bit-for-bit: the admission
    // path is identical, only the (untaken) park branch differs.
    auto run = [](unsigned ring_depth) {
        TestbedConfig cfg;
        cfg.workloadId = "rem_exe_mtu";
        cfg.platform = hw::Platform::SnicAccel;
        cfg.accelRingDepth = ring_depth;
        Testbed bed(cfg);
        return bed.measure(40.0, sim::msToTicks(1.0),
                           sim::msToTicks(5.0));
    };
    const Measurement a = run(0);         // unbounded default
    const Measurement b = run(1u << 20);  // bounded, never full
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.p50(), b.latency.p50());
    EXPECT_EQ(a.latency.p99(), b.latency.p99());
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_EQ(a.achievedGbps, b.achievedGbps);
    EXPECT_EQ(a.goodputGbps, b.goodputGbps);
    // And the ring reporting reflects the non-event.
    EXPECT_TRUE(b.accelRing.bounded());
    EXPECT_EQ(b.accelRing.parked, 0u);
    EXPECT_EQ(b.accelRing.fullTicks, 0u);
    EXPECT_FALSE(a.accelRing.bounded());
}

TEST(RemBackpressureShape, FiniteRingParksAndNamesUpstreamCause)
{
    // Past the knee with a finite ring, submissions must park, the
    // stall must be charged upstream, and the cross-stage correlation
    // must name the app stage (the serving cores that sat blocked on
    // the doorbell) as where the tail residency piled up during the
    // ring-full spans.
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    cfg.accelRingDepth = 64;
    Testbed bed(cfg);
    bed.enableTracing(16);
    const Measurement m = bed.measure(55.0, sim::msToTicks(1.0),
                                      sim::msToTicks(5.0));

    ASSERT_TRUE(m.accelRing.bounded());
    EXPECT_EQ(m.accelRing.depth, 64u);
    EXPECT_GT(m.accelRing.parked, 0u);
    EXPECT_GT(m.accelRing.parkedShare(), 0.0);
    EXPECT_GT(m.accelRing.fullTicks, 0u);
    EXPECT_GT(m.accelRing.stall.count(), 0u);
    EXPECT_GT(m.accelRing.stall.mean(), 0.0);

    // The traced tail shows time parked behind the full ring.
    ASSERT_FALSE(m.slowestTraces.empty());
    const TailAttribution a = attributeTail(m.slowestTraces);
    const double sum = a.backpressureShare + a.batchStallShare +
                       a.queueShare + a.serviceShare;
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Correlation: the accelerator's full ring coincides with
    // upstream (app-stage) residency — queueing caused elsewhere.
    EXPECT_EQ(m.backpressure.ringStage, 3);
    EXPECT_GT(m.backpressure.ringFullTicks, 0u);
    EXPECT_EQ(m.backpressure.stage, 2);
    EXPECT_GT(m.backpressure.share, 0.0);
    ASSERT_EQ(m.backpressure.overlapShare.size(), 5u);
    EXPECT_DOUBLE_EQ(m.backpressure.overlapShare[3], 0.0);
}

TEST(RemBackpressureShape, P99KneeShiftsLeftAsRingShrinks)
{
    // Fig. 5 with --ring-depth: at a fixed near-knee load, shrinking
    // the descriptor ring moves the p99 knee left — each smaller
    // ring parks more submissions and burns more upstream CPU on
    // stalls, so the same offered load sits deeper into saturation.
    auto p99_at = [](unsigned ring_depth) {
        TestbedConfig cfg;
        cfg.workloadId = "rem_exe_mtu";
        cfg.platform = hw::Platform::SnicAccel;
        cfg.accelRingDepth = ring_depth;
        Testbed bed(cfg);
        const Measurement m = bed.measure(45.0, sim::msToTicks(1.0),
                                          sim::msToTicks(5.0));
        return m.p99Us();
    };
    const double unbounded = p99_at(0);
    const double deep = p99_at(256);
    const double mid = p99_at(96);
    const double shallow = p99_at(48);
    EXPECT_GE(deep, unbounded * 0.999);
    EXPECT_GE(mid, deep);
    EXPECT_GE(shallow, mid);
    // The smallest ring is materially worse than no ring at all.
    EXPECT_GT(shallow, unbounded * 1.05);
}

// --- Traced windows reclaim every recorder slot -----------------

TEST(CoalescedTracing, WindowsReclaimTraceSlotsAndCloseAllHops)
{
    // Two hot traced windows with a finite ring: batch drains, parked
    // drops and straddling completions all discard their traces, so
    // once the pipeline empties every pool slot is back on the free
    // list and every kept hop is fully closed.
    TestbedConfig cfg;
    cfg.workloadId = "rem_exe_mtu";
    cfg.platform = hw::Platform::SnicAccel;
    cfg.accelRingDepth = 64;
    Testbed bed(cfg);
    bed.enableTracing(8);
    const Measurement m1 = bed.measure(55.0, sim::msToTicks(1.0),
                                       sim::msToTicks(2.0));
    const Measurement m2 = bed.measure(55.0, sim::msToTicks(1.0),
                                       sim::msToTicks(2.0));
    bed.sim().runAll();

    const TraceRecorder *rec = bed.tracer();
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->begun(), 0u);
    EXPECT_GT(rec->poolSize(), 0u);
    EXPECT_EQ(rec->freeCount(), rec->poolSize());

    for (const Measurement *m : {&m1, &m2}) {
        ASSERT_FALSE(m->slowestTraces.empty());
        for (const RequestTrace &t : m->slowestTraces) {
            EXPECT_GT(t.completedAt, t.createdAt);
            for (std::uint8_t i = 0; i < t.hopCount; ++i) {
                const TraceHop &hop = t.hops[i];
                EXPECT_LE(hop.entered, hop.exited);
                EXPECT_LE(hop.admitted, hop.exited);
                EXPECT_LE(hop.dispatched, hop.exited);
                // The four intervals tile the residency exactly.
                EXPECT_EQ(hop.backpressureStall() + hop.batchStall() +
                              hop.queueWait() + hop.serviceTime(),
                          hop.residency());
            }
        }
    }
}
