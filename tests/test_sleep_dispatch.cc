/**
 * @file
 * Tests for the dispatch/power seam: drained or asleep rack members
 * must vanish from every ToR policy's candidate and probe set (the
 * regression where least_queue would read a sleeping member's empty
 * queue and herd the whole rack onto a box that serves nothing),
 * drain must serve in-flight requests before the member sleeps, and
 * a waking member's admission stall must show up in the bin latency.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/rack.hh"
#include "net/tor_switch.hh"

using namespace snic;
using namespace snic::core;

namespace {

constexpr const char *kWorkload = "micro_udp_1024";

net::TorConfig
torConfig(net::DispatchPolicy policy, unsigned members)
{
    net::TorConfig c;
    c.policy = policy;
    c.members = members;
    c.seed = 3;
    return c;
}

/** Install the per-member load function @p load as the switch's
 *  batched probe. */
template <typename F>
void
setMemberLoads(net::TorSwitch &tor, F load)
{
    tor.setBatchLoadProbe(
        [load](const unsigned *members, unsigned n, std::uint64_t *out) {
            for (unsigned i = 0; i < n; ++i)
                out[i] = load(members ? members[i] : i);
        });
}

/** 1000 distinct-flow picks through the switch. */
std::vector<std::uint64_t>
runPicks(net::TorSwitch &tor)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        net::Packet pkt;
        pkt.id = i;
        pkt.flowHash = i * 2654435761u;
        tor.pick(pkt);
    }
    return tor.dispatched();
}

RackConfig
rackConfig(net::DispatchPolicy policy, unsigned servers)
{
    RackConfig c;
    c.workloadId = kWorkload;
    c.platform = hw::Platform::HostCpu;
    c.servers = servers;
    c.policy = policy;
    c.seed = 7;
    c.powerSpecs.wakeLatency = sim::usToTicks(200.0);
    return c;
}

/** Drive @p rack until member @p m reports Asleep (bounded). */
void
runUntilAsleep(Rack &rack, unsigned m)
{
    for (int i = 0; i < 2000 &&
                    rack.memberState(m) != power::PowerState::Asleep;
         ++i)
        rack.sim().runUntil(rack.sim().now() + sim::usToTicks(10.0));
    ASSERT_EQ(rack.memberState(m), power::PowerState::Asleep);
}

} // anonymous namespace

TEST(SleepDispatch, LeastQueueWouldHaveHerdedOntoTheSleeper)
{
    // The regression this seam exists for: member 2's queue reads
    // empty (it serves nothing), every other member is loaded. An
    // unfiltered least_queue sends *everything* to member 2; the
    // live mask must exclude it entirely.
    net::TorSwitch tor(
        torConfig(net::DispatchPolicy::LeastQueue, 4));
    setMemberLoads(
        tor, [](unsigned m) -> std::uint64_t { return m == 2 ? 0 : 100; });

    // Sanity: with everyone live, the herd goes exactly there.
    net::Packet probe_pkt;
    EXPECT_EQ(tor.pick(probe_pkt), 2u);

    tor.setLive(2, false);
    tor.resetStats();
    const std::vector<std::uint64_t> counts = runPicks(tor);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[0] + counts[1] + counts[3], 1000u);
}

TEST(SleepDispatch, EveryPolicyExcludesTheDeadMember)
{
    using net::DispatchPolicy;
    for (DispatchPolicy policy :
         {DispatchPolicy::RoundRobin, DispatchPolicy::Random,
          DispatchPolicy::Random2Choice, DispatchPolicy::FlowHash,
          DispatchPolicy::LeastQueue}) {
        net::TorSwitch tor(torConfig(policy, 4));
        // Rig the probe so the dead member is always the tempting
        // choice for the load-aware policies.
        setMemberLoads(tor, [](unsigned m) -> std::uint64_t {
            return m == 1 ? 0 : 50;
        });
        tor.setLive(1, false);
        EXPECT_EQ(tor.liveCount(), 3u);
        EXPECT_FALSE(tor.live(1));

        const std::vector<std::uint64_t> counts = runPicks(tor);
        EXPECT_EQ(counts[1], 0u)
            << net::dispatchPolicyName(policy);
        EXPECT_EQ(counts[0] + counts[2] + counts[3], 1000u)
            << net::dispatchPolicyName(policy);
        // The spreading policies still reach every survivor (least
        // _queue with a flat probe legitimately breaks every tie to
        // the lowest live index, so it gets no spread assertion).
        if (policy != DispatchPolicy::LeastQueue) {
            EXPECT_GT(counts[0], 0u)
                << net::dispatchPolicyName(policy);
            EXPECT_GT(counts[2], 0u)
                << net::dispatchPolicyName(policy);
            EXPECT_GT(counts[3], 0u)
                << net::dispatchPolicyName(policy);
        }
    }
}

TEST(SleepDispatch, RevivedMemberRejoinsTheRotation)
{
    net::TorSwitch tor(
        torConfig(net::DispatchPolicy::RoundRobin, 3));
    tor.setLive(2, false);
    runPicks(tor);
    tor.setLive(2, true);
    EXPECT_EQ(tor.liveCount(), 3u);
    tor.resetStats();
    const std::vector<std::uint64_t> counts = runPicks(tor);
    EXPECT_GT(counts[2], 0u);
}

TEST(SleepDispatch, DrainServesInFlightThenSleeps)
{
    Rack rack(rackConfig(net::DispatchPolicy::LeastQueue, 3));
    const double rate =
        0.4 * rack.estimateCapacityRps() * rack.meanRequestBytes() *
        8.0 / 1e9;
    const sim::Tick bin = sim::msToTicks(1.0);
    rack.beginTrace(std::vector<double>(8, rate), bin);
    rack.sim().runUntil(bin);

    rack.sleepMember(2);
    EXPECT_EQ(rack.dispatchableMembers(), 2u);
    // The member leaves the dispatch set immediately but finishes
    // what it holds: it must pass through Draining (or already be
    // quiescent) and settle Asleep without dropping anything.
    runUntilAsleep(rack, 2);

    // A full bin with the member asleep: it completes nothing, the
    // survivors carry the offered load.
    rack.sim().runUntil(sim::msToTicks(4.0));
    rack.beginBin();
    rack.sim().runUntil(sim::msToTicks(5.0));
    const RackBinStats stats = rack.endBin(bin);
    EXPECT_GT(stats.completed, 0u);
    EXPECT_EQ(stats.memberCompleted[2], 0u);
    EXPECT_GT(stats.memberCompleted[0], 0u);
    EXPECT_GT(stats.memberCompleted[1], 0u);
    // And the ToR never picked it while asleep.
    EXPECT_FALSE(rack.tor().live(2));
    rack.stopTrace();
}

TEST(SleepDispatch, WakeStallsAdmissionsUntilBootCompletes)
{
    Rack rack(rackConfig(net::DispatchPolicy::RoundRobin, 2));
    const sim::Tick wake_latency = sim::usToTicks(200.0);
    const double rate =
        0.4 * rack.estimateCapacityRps() * rack.meanRequestBytes() *
        8.0 / 1e9;
    const sim::Tick bin = sim::msToTicks(1.0);
    rack.beginTrace(std::vector<double>(8, rate), bin);
    rack.sim().runUntil(bin);
    rack.sleepMember(1);
    runUntilAsleep(rack, 1);
    rack.sim().runUntil(sim::msToTicks(3.0));

    // Baseline bin, member asleep: the max latency is far below the
    // wake latency at this load.
    rack.beginBin();
    rack.sim().runUntil(sim::msToTicks(4.0));
    const RackBinStats before = rack.endBin(bin);
    EXPECT_LT(before.latency.percentile(1.0), wake_latency / 2);

    // Wake it and immediately run a bin: round-robin sends every
    // other packet into the admission stall, so the bin's worst
    // latency carries most of the boot time.
    rack.wakeMember(1);
    EXPECT_EQ(rack.memberState(1), power::PowerState::Waking);
    EXPECT_EQ(rack.dispatchableMembers(), 2u);
    rack.beginBin();
    rack.sim().runUntil(sim::msToTicks(5.0));
    const RackBinStats during = rack.endBin(bin);
    EXPECT_EQ(rack.memberState(1), power::PowerState::Active);
    EXPECT_GT(during.latency.percentile(1.0), wake_latency / 2);
    EXPECT_GT(during.memberCompleted[1], 0u);
    rack.stopTrace();
}

TEST(SleepDispatch, WakeDuringDrainCancelsWithoutBootCost)
{
    Rack rack(rackConfig(net::DispatchPolicy::LeastQueue, 3));
    const double rate =
        0.5 * rack.estimateCapacityRps() * rack.meanRequestBytes() *
        8.0 / 1e9;
    const sim::Tick bin = sim::msToTicks(1.0);
    rack.beginTrace(std::vector<double>(4, rate), bin);
    rack.sim().runUntil(bin);

    rack.sleepMember(2);
    // Still mid-drain (it holds in-flight work at this load): a wake
    // order cancels the drain — the member never slept, so it pays
    // no boot latency and rejoins instantly.
    if (rack.memberState(2) == power::PowerState::Draining) {
        rack.wakeMember(2);
        EXPECT_EQ(rack.memberState(2), power::PowerState::Active);
        EXPECT_EQ(rack.dispatchableMembers(), 3u);
        EXPECT_EQ(rack.memberPower(2).residency(
                      power::PowerState::Waking, rack.sim().now()),
                  0u);
    }
    rack.stopTrace();
}

TEST(SleepDispatchDeath, LastDispatchableMemberCannotSleep)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            Rack rack(rackConfig(net::DispatchPolicy::RoundRobin, 2));
            rack.sleepMember(0);
            rack.sim().runUntil(sim::msToTicks(1.0));
            rack.sleepMember(1);  // would empty the dispatch set
        },
        ::testing::ExitedWithCode(1), "last live member");
}

TEST(SleepDispatchDeath, TorRejectsBadLiveness)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            net::TorSwitch tor(
                torConfig(net::DispatchPolicy::RoundRobin, 2));
            tor.setLive(5, false);  // out of range
        },
        ::testing::ExitedWithCode(1), "setLive");
    EXPECT_EXIT(
        {
            net::TorSwitch tor(
                torConfig(net::DispatchPolicy::RoundRobin, 2));
            tor.setLive(0, false);
            tor.setLive(1, false);
        },
        ::testing::ExitedWithCode(1), "last live member");
}
