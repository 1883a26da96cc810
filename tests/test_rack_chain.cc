/**
 * @file
 * Tests for rack-spanning service chains: cross-member transfer
 * pricing (ToR forwarding + wire serialization + propagation), the
 * single-member identity invariant (a rack chain placed entirely on
 * member 0 is bitwise the standalone Testbed chain), forced-ingress
 * dispatch, spanning-aware power control, the bounded-probe JSQ(d)
 * policy, the batched least_queue probe, and the rack-level
 * placement key/advisor.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/advisor.hh"
#include "core/rack.hh"
#include "hw/specs.hh"
#include "net/link.hh"
#include "net/tor_switch.hh"

using namespace snic;
using namespace snic::core;

namespace {

constexpr const char *kEcho = "micro_udp_1024";

/** A 2-stage echo chain; stage 2 optionally on another member. */
ChainSpec
echoChain(unsigned second_member)
{
    ChainSpec c;
    c.then(kEcho, hw::Platform::HostCpu)
        .then(kEcho, hw::Platform::HostCpu, second_member);
    return c;
}

RackConfig
chainRack(unsigned servers, unsigned second_member,
          std::uint64_t seed = 7)
{
    RackConfig cfg;
    cfg.chain = echoChain(second_member);
    cfg.servers = servers;
    cfg.policy = servers == 1 ? net::DispatchPolicy::PassThrough
                              : net::DispatchPolicy::RoundRobin;
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

const StageSnapshot *
findStage(const Measurement &m, const std::string &name)
{
    for (const StageSnapshot &s : m.stageStats)
        if (s.name == name)
            return &s;
    return nullptr;
}

} // anonymous namespace

// --- The identity invariant ---

TEST(RackChain, SingleMemberRackChainIsBitwiseIdenticalToTestbed)
{
    // A rack chain placed entirely on member 0 must replay the
    // standalone Testbed chain's exact event sequence: the spanning
    // machinery may add nothing — no extra stage, no RNG draw, no
    // latency — until a stage actually names another member.
    const sim::Tick warmup = sim::msToTicks(1.0);
    const sim::Tick window = sim::msToTicks(10.0);
    const double gbps = 6.0;

    TestbedConfig tc;
    tc.chain = echoChain(0);
    tc.seed = 7;
    Testbed bed(tc);
    const Measurement single = bed.measure(gbps, warmup, window);

    Rack rack(chainRack(1, 0));
    EXPECT_FALSE(rack.chainMode());
    const RackMeasurement rm = rack.measure(gbps, warmup, window);

    ASSERT_EQ(rm.perServer.size(), 1u);
    ASSERT_GT(single.completed, 0u);
    expectBitwiseEqual(rm.perServer[0], single);
    expectBitwiseEqual(rm.aggregate, single);
}

// --- sendThrough: the hop's wire booking ---

TEST(RackChain, SendThroughPaysSerializationAndQueueing)
{
    sim::Simulation sim(1);
    net::Link wire(sim, "wire", 100.0, sim::usToTicks(1.0));

    net::Packet pkt;
    pkt.sizeBytes = 1024;
    // 1024 B at 100 Gbps = 81.92 ns serialization = 81920 ticks;
    // +1 us propagation = 1081920 ticks to delivery.
    const net::TransferTicket first = wire.sendThrough(pkt);
    ASSERT_TRUE(static_cast<bool>(first));
    EXPECT_EQ(first.deliverAt, 81920u + 1000000u);
    // Back-to-back: the second transfer queues behind the first's
    // serialization.
    const net::TransferTicket second = wire.sendThrough(pkt);
    ASSERT_TRUE(static_cast<bool>(second));
    EXPECT_EQ(second.deliverAt, 2u * 81920u + 1000000u);

    // Both booked, neither delivered yet.
    EXPECT_EQ(wire.inFlight(), 2u);
    EXPECT_EQ(wire.delivered(), 0u);
    wire.completeTransfer(first, pkt.sizeBytes);
    wire.completeTransfer(second, pkt.sizeBytes);
    EXPECT_EQ(wire.inFlight(), 0u);
    EXPECT_EQ(wire.delivered(), 2u);
    EXPECT_EQ(wire.bytesDelivered(), 2048u);
}

TEST(RackChain, TransferStraddlingResetCannotAbsorbFreshDelivery)
{
    // Regression: a sendThrough() booked before a window reset()
    // whose completion lands *after* fresh sink traffic has been
    // delivered. The old FIFO-phantom accounting let the straddler's
    // completion (or the fresh deliveries themselves) drain the
    // wrong budget, leaving inFlight() permanently off by one.
    sim::Simulation sim(1);
    net::Link wire(sim, "wire", 100.0, sim::usToTicks(1.0));
    wire.connect([](const net::Packet &) {});

    net::Packet pkt;
    pkt.sizeBytes = 1024;

    // Book a pass-through hop, then reset the window before its
    // continuation runs: the booking becomes phantom.
    const net::TransferTicket straddler = wire.sendThrough(pkt);
    ASSERT_TRUE(static_cast<bool>(straddler));
    wire.reset();
    EXPECT_EQ(wire.inFlight(), 0u);

    // Two fresh sink packets sent and delivered post-reset.
    ASSERT_TRUE(wire.send(pkt));
    ASSERT_TRUE(wire.send(pkt));
    EXPECT_EQ(wire.inFlight(), 2u);
    sim.runUntil(sim::usToTicks(10.0));
    // Both fresh deliveries must count as fresh — none may be eaten
    // by the straddler's phantom budget.
    EXPECT_EQ(wire.inFlight(), 0u);

    // The straddler's completion arrives last, generation-matched:
    // it drains the pass-through phantom budget and must not push
    // inFlight() negative (clamped) or double-count a delivery.
    wire.completeTransfer(straddler, pkt.sizeBytes);
    EXPECT_EQ(wire.inFlight(), 0u);

    // A fresh booking after all that still rounds to exactly zero
    // once completed — the budgets are fully drained, not skewed.
    const net::TransferTicket fresh = wire.sendThrough(pkt);
    ASSERT_TRUE(static_cast<bool>(fresh));
    EXPECT_EQ(wire.inFlight(), 1u);
    wire.completeTransfer(fresh, pkt.sizeBytes);
    EXPECT_EQ(wire.inFlight(), 0u);
}

// --- Cross-member transfers on the assembled rack ---

TEST(RackChain, CrossMemberHopPaysTorWireAndPropagation)
{
    // micro_udp_1024 echoes a fixed 1024 B payload, so the hop into
    // member 1 costs exactly ToR forwarding (600 ns) + serialization
    // (81.92 ns) + propagation (1 us) = 1.68192 us at low load.
    Rack rack(chainRack(2, 1));
    ASSERT_TRUE(rack.chainMode());
    EXPECT_EQ(rack.chainIngress(), 0u);

    const RackMeasurement rm = rack.measure(
        0.4, sim::msToTicks(1.0), sim::msToTicks(10.0));
    ASSERT_GT(rm.aggregate.completed, 0u);

    const StageSnapshot *hop = findStage(rm.perServer[0], "xtor#1");
    ASSERT_NE(hop, nullptr);
    EXPECT_GT(hop->forwarded, 0u);
    EXPECT_NEAR(hop->meanResidencyUs, 1.68192, 0.02);
    EXPECT_GE(hop->meanResidencyUs, 1.68192 - 1e-9);
    // Every completed request took exactly one priced ToR hop.
    EXPECT_EQ(rack.tor().chainForwards(), hop->forwarded);
}

TEST(RackChain, HopContendsWithWireLoad)
{
    // The hop is a real shared wire, not a fixed latency adder: ship
    // a payload-inflating stage's output (comp_app_dec emits 64 KB
    // decompressed blocks, 5.24 us of serialization each) and the
    // transfer stage's residency must grow with offered load as
    // transfers queue behind each other on the destination's wire.
    // The hop stage is "xtor#2": micro front -> inflate -> hop.
    ChainSpec chain;
    chain.then(kEcho, hw::Platform::HostCpu)
        .then("comp_app_dec", hw::Platform::HostCpu)
        .then("rem_exe", hw::Platform::HostCpu, 1);
    RackConfig cfg;
    cfg.chain = chain;
    cfg.servers = 2;
    cfg.policy = net::DispatchPolicy::RoundRobin;
    cfg.seed = 7;

    Rack quiet(cfg);
    const RackMeasurement lo = quiet.measure(
        0.05, sim::msToTicks(1.0), sim::msToTicks(10.0));
    Rack busy(cfg);
    const RackMeasurement hi = busy.measure(
        0.7, sim::msToTicks(1.0), sim::msToTicks(10.0));

    const StageSnapshot *hop_lo = findStage(lo.perServer[0], "xtor#2");
    const StageSnapshot *hop_hi = findStage(hi.perServer[0], "xtor#2");
    ASSERT_NE(hop_lo, nullptr);
    ASSERT_NE(hop_hi, nullptr);
    ASSERT_GT(hop_lo->forwarded, 0u);
    ASSERT_GT(hop_hi->forwarded, 0u);
    EXPECT_GT(hop_hi->meanResidencyUs, hop_lo->meanResidencyUs);
}

TEST(RackChain, AllExternalTrafficEntersAtIngressMember)
{
    Rack rack(chainRack(2, 1));
    const RackMeasurement rm = rack.measure(
        2.0, sim::msToTicks(1.0), sim::msToTicks(5.0));
    ASSERT_GT(rm.aggregate.completed, 0u);
    ASSERT_EQ(rm.dispatched.size(), 2u);
    EXPECT_GT(rm.dispatched[0], 0u);
    // Member 1 receives hop transfers, never external dispatch.
    EXPECT_EQ(rm.dispatched[1], 0u);
}

TEST(RackChain, TracedSpanningRunIsBitwiseIdenticalToUntraced)
{
    const sim::Tick warmup = sim::msToTicks(1.0);
    const sim::Tick window = sim::msToTicks(5.0);

    Rack plain(chainRack(2, 1));
    const RackMeasurement a = plain.measure(4.0, warmup, window);

    Rack traced(chainRack(2, 1));
    traced.server(0).enableTracing(4);
    const RackMeasurement b = traced.measure(4.0, warmup, window);

    ASSERT_GT(a.aggregate.completed, 0u);
    expectBitwiseEqual(a.aggregate, b.aggregate);
    EXPECT_FALSE(
        b.perServer[0].slowestTraces.empty());
}

TEST(RackChain, SpanningCapacityEstimateUsesOneIngress)
{
    // A spanning chain is one replica behind one ingress: its
    // analytic capacity must not double when a second member hosts a
    // stage (summing members would count the same request twice).
    Rack spanning(chainRack(2, 1));
    Rack replicated(chainRack(2, 0));
    const double span_rps = spanning.estimateCapacityRps();
    const double repl_rps = replicated.estimateCapacityRps();
    EXPECT_GT(span_rps, 0.0);
    // Two independent replicas estimate ~2x one spanning unit (the
    // echo chain is CPU-bound, and the spanning unit splits its two
    // stages across two servers' CPUs — so the ratio is < 2 but the
    // replicated rack must clearly exceed the single-ingress unit).
    EXPECT_GT(repl_rps, span_rps);
}

// --- Power control on spanning racks ---

TEST(RackChain, UnpinnedMemberOfSpanningRackCanSleep)
{
    RackConfig cfg = chainRack(3, 1);
    Rack rack(cfg);
    EXPECT_EQ(rack.dispatchableMembers(), 3u);
    rack.sleepMember(2);  // hosts no stage: legal
    EXPECT_EQ(rack.dispatchableMembers(), 2u);
    // An idle member is quiescent, so the drain completes at once.
    EXPECT_EQ(rack.memberState(2), power::PowerState::Asleep);
}

// --- Death tests ---

TEST(RackChainDeath, StandaloneTestbedRejectsMemberPlacement)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            TestbedConfig cfg;
            cfg.chain = echoChain(1);
            Testbed bed(cfg);
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(RackChainDeath, RackRejectsMemberBeyondServers)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            Rack rack(chainRack(2, 5));
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(RackChainDeath, SleepingAChainPinnedMemberIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            Rack rack(chainRack(3, 1));
            rack.sleepMember(1);  // hosts stage 2
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(RackChainDeath, ChainHopToNonLiveMemberIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            net::TorConfig tc;
            tc.policy = net::DispatchPolicy::RoundRobin;
            tc.members = 2;
            net::TorSwitch tor(tc);
            tor.setLive(1, false);
            tor.forwardChainHop(1);
        },
        ::testing::ExitedWithCode(1), "");
}

TEST(RackChainDeath, DChoiceWithZeroProbesIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            net::TorConfig tc;
            tc.policy = net::DispatchPolicy::RandomDChoice;
            tc.members = 4;
            tc.probes = 0;
            net::TorSwitch tor(tc);
        },
        ::testing::ExitedWithCode(1), "");
}

// --- JSQ(d) dispatch policy ---

namespace {

net::TorConfig
torConfig(net::DispatchPolicy policy, unsigned members,
          unsigned probes = 2)
{
    net::TorConfig tc;
    tc.policy = policy;
    tc.members = members;
    tc.seed = 99;
    tc.probes = probes;
    return tc;
}

net::Packet
packetWithFlow(std::uint64_t id)
{
    net::Packet p;
    p.id = id;
    p.sizeBytes = 1024;
    p.flowHash = id * 2654435761u;
    return p;
}

} // anonymous namespace

TEST(RackChain, DChoiceWithOneProbeIsRandom)
{
    // d=1 draws one member and takes it: the same RNG stream as the
    // Random policy, so the pick sequences are identical.
    net::TorSwitch random(
        torConfig(net::DispatchPolicy::Random, 8));
    net::TorSwitch dchoice(
        torConfig(net::DispatchPolicy::RandomDChoice, 8, 1));
    dchoice.setLoadProbe([](unsigned) { return 0ull; });
    for (std::uint64_t i = 0; i < 500; ++i) {
        const net::Packet p = packetWithFlow(i);
        EXPECT_EQ(dchoice.pick(p), random.pick(p));
    }
}

TEST(RackChain, DChoiceWithTwoProbesMatchesRandom2Choice)
{
    std::vector<std::uint64_t> loads = {40, 3, 87, 20, 55, 9, 71, 16};
    auto probe = [&loads](unsigned m) { return loads[m]; };
    net::TorSwitch two(
        torConfig(net::DispatchPolicy::Random2Choice, 8));
    two.setLoadProbe(probe);
    net::TorSwitch dchoice(
        torConfig(net::DispatchPolicy::RandomDChoice, 8, 2));
    dchoice.setLoadProbe(probe);
    for (std::uint64_t i = 0; i < 500; ++i) {
        const net::Packet p = packetWithFlow(i);
        EXPECT_EQ(dchoice.pick(p), two.pick(p));
        // Rotate loads so ties and reversals both occur.
        std::rotate(loads.begin(), loads.begin() + 1, loads.end());
    }
}

TEST(RackChain, DChoiceForwardingChargeIncludesProbes)
{
    net::TorSwitch dchoice(
        torConfig(net::DispatchPolicy::RandomDChoice, 8, 3));
    // 600 ns forwarding + 3 probes x 50 ns register reads.
    EXPECT_DOUBLE_EQ(dchoice.forwardNs(), 600.0 + 3 * 50.0);
    net::TorSwitch two(
        torConfig(net::DispatchPolicy::Random2Choice, 8));
    EXPECT_DOUBLE_EQ(two.forwardNs(), 600.0);
    net::TorConfig pt = torConfig(net::DispatchPolicy::PassThrough, 1);
    net::TorSwitch pass(pt);
    EXPECT_DOUBLE_EQ(pass.forwardNs(), 0.0);
}

TEST(RackChain, DChoiceSpreadsBetterThanRandomUnderSkew)
{
    // With a truthful load probe, JSQ(2) must beat oblivious Random
    // on dispatch imbalance when member loads reflect dispatch
    // history (the classic power-of-two-choices effect).
    std::vector<std::uint64_t> la(16, 0), lb(16, 0);
    net::TorSwitch random(
        torConfig(net::DispatchPolicy::Random, 16));
    net::TorSwitch dchoice(
        torConfig(net::DispatchPolicy::RandomDChoice, 16, 2));
    dchoice.setLoadProbe([&lb](unsigned m) { return lb[m]; });
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const net::Packet p = packetWithFlow(i);
        ++la[random.pick(p)];
        ++lb[dchoice.pick(p)];
    }
    EXPECT_LT(dchoice.imbalance(), random.imbalance());
}

// --- Batched least_queue probe ---

TEST(RackChain, BatchedLeastQueueMatchesScalarProbe)
{
    // The batched probe is a performance path only: with identical
    // load numbers the argmin (first minimum wins) must pick the
    // same member as the per-member scalar path — including on ties
    // and with members removed from the live set.
    std::vector<std::uint64_t> loads = {7, 3, 3, 9, 1, 1, 8, 2};
    auto run = [&loads](bool batched, bool filter) {
        net::TorSwitch tor(
            torConfig(net::DispatchPolicy::LeastQueue, 8));
        if (batched) {
            tor.setBatchLoadProbe([&loads](const unsigned *members,
                                           unsigned n,
                                           std::uint64_t *out) {
                for (unsigned i = 0; i < n; ++i)
                    out[i] = loads[members ? members[i] : i];
            });
        } else {
            tor.setLoadProbe(
                [&loads](unsigned m) { return loads[m]; });
        }
        if (filter) {
            tor.setLive(4, false);
            tor.setLive(5, false);
        }
        std::vector<unsigned> picks;
        for (std::uint64_t i = 0; i < 64; ++i) {
            picks.push_back(tor.pick(packetWithFlow(i)));
            ++loads[picks.back()];
        }
        return picks;
    };

    auto base = loads;
    const auto scalar_full = run(false, false);
    loads = base;
    const auto batch_full = run(true, false);
    EXPECT_EQ(scalar_full, batch_full);

    loads = base;
    const auto scalar_filtered = run(false, true);
    loads = base;
    const auto batch_filtered = run(true, true);
    EXPECT_EQ(scalar_filtered, batch_filtered);
    EXPECT_EQ(std::count(scalar_filtered.begin(),
                         scalar_filtered.end(), 4u), 0);
}

// --- Rack-level placement key and advisor ---

TEST(RackChain, RackKeyOnOneMemberReducesToPlacementKey)
{
    const std::vector<workloads::FunctionProfile> profiles = {
        workloads::functionProfile("comp_app_dec"),
        workloads::functionProfile("rem_exe"),
    };
    const std::vector<hw::Platform> where = {
        hw::Platform::HostCpu, hw::Platform::SnicAccel};
    const PlacementKey flat = placementKey(profiles, where);
    const PlacementKey rackwise =
        rackPlacementKey(profiles, where, {0, 0});
    EXPECT_EQ(rackwise.location, flat.location);
    EXPECT_EQ(rackwise.bandwidth, flat.bandwidth);
    EXPECT_EQ(rackwise.resource, flat.resource);
}

TEST(RackChain, RackKeyChargesMemberHops)
{
    const std::vector<workloads::FunctionProfile> profiles = {
        workloads::functionProfile(kEcho),
        workloads::functionProfile(kEcho),
    };
    const std::vector<hw::Platform> where = {
        hw::Platform::HostCpu, hw::Platform::HostCpu};
    const PlacementKey local =
        rackPlacementKey(profiles, where, {0, 0});
    const PlacementKey spanning =
        rackPlacementKey(profiles, where, {0, 1});
    // One hop at weight 2, no PCIe crossings on either side.
    EXPECT_EQ(local.location, 0.0);
    EXPECT_EQ(spanning.location, 2.0);
    // The echo stage is so cheap that the hop's 100 Gbps wire time
    // (1024 B / 12.5 GB/s = 81.92 ns) becomes the spanning
    // placement's analytic bottleneck — the key must price the hop
    // as a real resource, not treat spreading as free capacity.
    EXPECT_DOUBLE_EQ(spanning.bandwidth, 1024.0 / 12.5e9);
    EXPECT_GT(spanning.bandwidth, local.bandwidth);
    // The cost-weighted resource total is unchanged by spreading.
    EXPECT_EQ(spanning.resource, local.resource);
}

TEST(RackChain, RackAdvisorEnumeratesWithoutMemberRelabeling)
{
    // Two 2-platform functions (micro_udp runs on host or SNIC CPU)
    // across up to 2 members: 4 platform combos x the member vectors
    // {0,0} and {0,1} = 8 candidates. {1,0}-style member relabelings
    // never appear — restricted-growth form dedups them for free.
    RackChainAdvisorOptions opts;
    opts.maxMembers = 2;
    opts.desBudget = 1;
    opts.targetSamples = 200;
    opts.demandGbps = 10.0;
    SloConstraint slo;
    const RackChainAdvice advice =
        adviseRackChainPlacement({kEcho, kEcho}, slo, opts);
    EXPECT_EQ(advice.enumerated, 8u);
    ASSERT_EQ(advice.candidates.size(), 8u);
    unsigned spanning = 0;
    for (const RackChainPlacementCandidate &c : advice.candidates) {
        ASSERT_EQ(c.member.size(), 2u);
        EXPECT_EQ(c.member[0], 0u);
        EXPECT_LE(c.member[1], 1u);
        if (c.membersUsed == 2)
            ++spanning;
    }
    EXPECT_EQ(spanning, 4u);
    EXPECT_GE(advice.desPick, 0);
}

TEST(RackChain, RackAdvisorEvaluatesSpanningCandidateOnRealRack)
{
    RackChainAdvisorOptions opts;
    opts.maxMembers = 2;
    opts.desBudget = 2;
    opts.targetSamples = 300;
    opts.demandGbps = 10.0;
    SloConstraint slo;
    const RackChainAdvice advice =
        adviseRackChainPlacement({kEcho, kEcho}, slo, opts);
    unsigned evaluated = 0;
    for (const RackChainPlacementCandidate &c : advice.candidates) {
        if (!c.evaluated)
            continue;
        ++evaluated;
        EXPECT_GT(c.capacityGbps, 0.0);
        EXPECT_GT(c.p99Us, 0.0);
        EXPECT_GT(c.tco5yrUsd, 0.0);
        EXPECT_EQ(c.serversForDemand,
                  c.unitsForDemand * c.membersUsed);
    }
    EXPECT_EQ(evaluated, 2u);
    ASSERT_GE(advice.desPick, 0);
}

TEST(RackChain, RackAdvisorKeepsLocallyDrivenChainOnOneMember)
{
    // comp_app_dec generates its own jobs: a Rack cannot dispatch
    // them, so the search may not spread the chain, and it must still
    // finish with a pick instead of dying at a spanning candidate.
    RackChainAdvisorOptions opts;
    opts.maxMembers = 2;
    opts.desBudget = 8;
    opts.targetSamples = 300;
    const RackChainAdvice advice =
        adviseRackChainPlacement({"comp_app_dec", "rem_exe"}, {}, opts);
    ASSERT_FALSE(advice.candidates.empty());
    for (const RackChainPlacementCandidate &c : advice.candidates) {
        EXPECT_EQ(c.membersUsed, 1u);
        EXPECT_EQ(c.member, (std::vector<unsigned>{0, 0}));
    }
    EXPECT_GE(advice.desPick, 0);
    EXPECT_EQ(advice.rationale.find('@'), std::string::npos);
}

// --- Advisor option validation ---

namespace {

RackChainAdvice
adviseEcho(const RackChainAdvisorOptions &opts)
{
    return adviseRackChainPlacement({kEcho, kEcho}, {}, opts);
}

} // anonymous namespace

TEST(AdvisorDeath, ZeroMaxMembersIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    RackChainAdvisorOptions opts;
    opts.maxMembers = 0;
    EXPECT_EXIT(adviseEcho(opts), ::testing::ExitedWithCode(1),
                "maxMembers");
}

TEST(AdvisorDeath, DesBudgetBelowOneIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    RackChainAdvisorOptions opts;
    opts.desBudget = 0;
    EXPECT_EXIT(adviseEcho(opts), ::testing::ExitedWithCode(1),
                "desBudget");
    // The single-server search is the same search and checks the
    // same fields.
    ChainAdvisorOptions flat;
    flat.desBudget = -1;
    EXPECT_EXIT(adviseChainPlacement({kEcho}, {}, flat),
                ::testing::ExitedWithCode(1), "desBudget");
}

TEST(AdvisorDeath, LoadFactorOutsideUnitIntervalIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const double bad : {0.0, -0.5, 1.5}) {
        SCOPED_TRACE(bad);
        RackChainAdvisorOptions opts;
        opts.loadFactor = bad;
        EXPECT_EXIT(adviseEcho(opts), ::testing::ExitedWithCode(1),
                    "loadFactor");
    }
}

TEST(AdvisorDeath, NonPositiveDemandIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const double bad : {0.0, -10.0}) {
        SCOPED_TRACE(bad);
        RackChainAdvisorOptions opts;
        opts.demandGbps = bad;
        EXPECT_EXIT(adviseEcho(opts), ::testing::ExitedWithCode(1),
                    "demandGbps");
    }
}
