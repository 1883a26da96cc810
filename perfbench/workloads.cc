/**
 * @file
 * The four workloads. Each pass rebuilds every simulation from the
 * seed and runs its operations one after another: no thread pool.
 *
 *   testbed_sweep  Fig-4 lineup on both sides, five E7 policies, one
 *                  nicache hot-key point, one xdp_acl flood point.
 *   rack_m32_lq    one long window of a 32-member least_queue rack.
 *   fleet_day      two 4-member racks over the 72-bin synthetic day.
 *   chain_advisor  fixed-placement chain sweep plus three advisor
 *                  showdowns.
 *
 * Seeds: the simulation seeds are the benchmark seed; the dc_trace
 * seed and the XDP testbed/hook seeds keep the paper drivers'
 * offsets, so the default seed replays bench/fleet_diurnal,
 * bench/nicache and bench/xdp_acl's streams.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "alg/kv/front_cache.hh"
#include "core/advisor.hh"
#include "core/fleet.hh"
#include "core/load_balancer.hh"
#include "core/rack.hh"
#include "core/report.hh"
#include "core/throughput_search.hh"
#include "net/dc_trace.hh"
#include "net/tor_switch.hh"
#include "net/traffic_gen.hh"
#include "perfbench.hh"
#include "workloads/fio.hh"
#include "workloads/nicache.hh"

namespace perfbench {

namespace {

using namespace snic;
using namespace snic::core;

// --- Lengths (see README.md "Sizing") -------------------------------

/** testbed_sweep: samples per capacity/load-point window. */
constexpr std::uint64_t kSweepSamples = 1000;
constexpr std::uint64_t kSweepSamplesSmoke = 200;
/** rack_m32_lq: the measured window. */
constexpr double kRackWindowMs = 40.0;
constexpr double kRackWindowMsSmoke = 2.0;
/** chain_advisor: samples per window in the sweep and the advisor. */
constexpr std::uint64_t kChainSamples = 1500;
constexpr std::uint64_t kChainSamplesSmoke = 400;
constexpr int kDesBudget = 8;
constexpr int kDesBudgetSmoke = 2;

// --- Digests and per-layer counts ------------------------------------

void
digestStages(Digest &d, const std::vector<StageSnapshot> &stages)
{
    for (const StageSnapshot &s : stages) {
        d.add(s.name)
            .add(s.accepted)
            .add(s.forwarded)
            .add(s.dropped)
            .add(s.droppedStale)
            .add(s.inFlight);
    }
}

void
digestMeasurement(Digest &d, const Measurement &m)
{
    d.add(m.generated)
        .add(m.completed)
        .add(m.floodCompleted)
        .add(m.latency.count())
        .add(m.latency.p50())
        .add(m.latency.p99())
        .add(m.achievedGbps)
        .add(m.goodputGbps)
        .add(m.energy.serverJoules);
    digestStages(d, m.stageStats);
}

void
countStages(Pass &p, const std::vector<StageSnapshot> &stages)
{
    if (stages.empty())
        return;
    p.count("pipeline.ingress_accepts", stages.front().accepted);
    for (const StageSnapshot &s : stages) {
        p.count("pipeline.stage_visits", s.accepted);
        p.count("pipeline.stale_drops", s.droppedStale);
    }
}

/** A measurement window's DES work: events fired during the call and
 *  the requests it completed. */
void
countWindow(Pass &p, std::uint64_t events, std::uint64_t completed)
{
    p.count("measure.events", events);
    p.count("measure.completed", completed);
}

/** End-of-operation footprint of one benchmark-owned simulation. */
void
countSim(Pass &p, sim::Simulation &s)
{
    p.count("sim.events", s.events().numFired());
    p.peak("sim.pool_slots", s.events().poolSlots());
}

std::string
placementLabel(const std::vector<hw::Platform> &where)
{
    std::string s;
    for (std::size_t k = 0; k < where.size(); ++k) {
        if (k)
            s += "+";
        s += hw::platformName(where[k]);
    }
    return s;
}

// --- testbed_sweep ---------------------------------------------------

struct CellOutcome
{
    double maxGbps = 0.0;
    double p99Us = 0.0;
};

/** The runExperiment procedure from its public steps: assemble,
 *  capacity search, load-point window (fio: one closed-loop window
 *  at its iodepth). */
CellOutcome
sweepCell(Pass &p, const std::string &id, hw::Platform platform,
          const ExperimentOptions &opts)
{
    CellOutcome out;
    p.op("cell/" + id + "/" + hw::platformName(platform),
         [&](OpResult &r) {
        TestbedConfig cfg;
        cfg.workloadId = id;
        cfg.platform = platform;
        cfg.seed = opts.seed;
        std::unique_ptr<Testbed> bed;
        {
            Scope s(p, "core.assemble");
            bed = std::make_unique<Testbed>(cfg);
        }
        p.noteBuild(id, cfg.seed);
        sim::EventQueue &ev = bed->sim().events();

        Digest d;
        Measurement m;
        std::uint64_t e0 = 0;
        if (bed->workload().spec().family == "fio") {
            const sim::Tick window =
                windowFor(bed->estimateCapacityRps(), opts);
            e0 = ev.numFired();
            Scope s(p, "core.measure");
            m = bed->measureClosedLoop(workloads::Fio::ioDepth,
                                       opts.warmup, window);
            out.maxGbps = m.goodputGbps;
        } else {
            Capacity cap;
            {
                Scope s(p, "search.capacity");
                cap = findCapacity(*bed, opts);
            }
            p.count("search.windows", cap.attempts);
            d.add(cap.gbps)
                .add(cap.requestGbps)
                .add(cap.rps)
                .add(static_cast<std::uint64_t>(cap.attempts))
                .add(static_cast<std::uint64_t>(cap.saturated));
            const double spec_lf =
                bed->workload().spec().operatingLoadFactor;
            const double rate =
                cap.requestGbps *
                (spec_lf > 0.0 ? spec_lf : opts.loadFactor);
            e0 = ev.numFired();
            Scope s(p, "core.measure");
            m = bed->measure(rate, opts.warmup,
                             windowFor(cap.rps, opts));
            out.maxGbps = cap.gbps;
        }
        countWindow(p, ev.numFired() - e0, m.completed);
        countStages(p, m.stageStats);
        countSim(p, bed->sim());
        p.peak("pipeline.pool_slots",
               static_cast<double>(bed->pipeline().requestPoolSize()));
        out.p99Us = m.p99Us();
        digestMeasurement(d, m);
        r.digest = d.add(ev.numFired()).value();
        r.error = conservation(m);
    });
    return out;
}

void
e7Policies(Pass &p, const Params &prm)
{
    // ablation_load_balancer's bursty schedule across the
    // accelerator's ~50 Gbps cap.
    const std::vector<double> rates{5.0,  10.0, 25.0, 55.0, 70.0,
                                    55.0, 25.0, 10.0, 5.0,  2.0};
    for (const BalancePolicy policy :
         {BalancePolicy::SnicOnly, BalancePolicy::HostOnly,
          BalancePolicy::StaticSplit, BalancePolicy::Threshold,
          BalancePolicy::HwThreshold}) {
        p.op(std::string("e7/") + balancePolicyName(policy),
             [&](OpResult &r) {
            BalancerConfig cfg;
            cfg.policy = policy;
            cfg.ratesGbps = rates;
            cfg.binTicks = sim::msToTicks(prm.smoke ? 0.2 : 2.0);
            cfg.thresholdUs = 40.0;
            cfg.hostFraction = 0.5;
            cfg.seed = prm.seed;
            BalancerResult b;
            {
                Scope s(p, "balancer.run");
                b = runBalancer(cfg);
            }
            Digest d;
            d.add(b.completed)
                .add(b.achievedGbps)
                .add(b.p99Us)
                .add(b.meanUs)
                .add(b.avgServerWatts)
                .add(b.snicCpuUtil)
                .add(b.hostShare);
            r.digest = d.value();
            if (b.completed == 0 || b.hostShare < 0.0 ||
                b.hostShare > 1.0)
                r.error = "balancer completed nothing or host share "
                          "outside [0, 1]";
        });
    }
}

/** bench/nicache's cell at skew 0.5: an overloaded host behind an
 *  in-NIC front cache that demand-fills in the verdict hook. */
void
nicachePoint(Pass &p, const Params &prm)
{
    p.op("xdp/nicache_skew0.5", [&](OpResult &r) {
        constexpr std::uint64_t keys = workloads::NicacheGet::records;
        TestbedConfig tc;
        tc.workloadId = "nicache_get";
        tc.seed = prm.seed + 30;
        auto cache = std::make_shared<alg::kv::FrontCache>(keys / 10);
        auto rng = std::make_shared<sim::Random>(tc.seed + 1234567);
        std::vector<double> *hook_ns = p.traced ? &p.hookNs : nullptr;
        tc.xdpVerdict = [cache, rng, hook_ns](const net::Packet &pkt) {
            const double t0 = hook_ns ? wallSec() : 0.0;
            const std::uint64_t key =
                net::hotKeyCollapse(pkt.flowHash, keys, 0.5, *rng);
            XdpOutcome out;
            if (const auto hit = cache->lookup(key)) {
                out.verdict = XdpVerdict::NicServe;
                out.responseBytes = 8 + *hit;
            } else {
                cache->insert(key, static_cast<std::uint32_t>(
                                       workloads::NicacheGet::valueBytes));
            }
            if (hook_ns)
                hook_ns->push_back((wallSec() - t0) * 1e9);
            return out;
        };
        std::unique_ptr<Testbed> bed;
        {
            Scope s(p, "core.assemble");
            bed = std::make_unique<Testbed>(tc);
        }
        p.noteBuild(tc.workloadId, tc.seed);
        sim::EventQueue &ev = bed->sim().events();
        const double offered_gbps =
            1.2 * bed->estimateCapacityRps() * 64.0 * 8.0 / 1e9;
        const sim::Tick warmup = sim::msToTicks(1.0);
        const sim::Tick window = sim::msToTicks(prm.smoke ? 1.0 : 10.0);

        Digest d;
        Measurement warm, m;
        std::uint64_t e0 = ev.numFired();
        {
            Scope s(p, "core.measure");
            warm = bed->measure(offered_gbps, warmup, window);
        }
        countWindow(p, ev.numFired() - e0, warm.completed);
        cache->resetStats();
        e0 = ev.numFired();
        {
            Scope s(p, "core.measure");
            m = bed->measure(offered_gbps, warmup, window);
        }
        countWindow(p, ev.numFired() - e0, m.completed);
        countStages(p, warm.stageStats);
        countStages(p, m.stageStats);
        countSim(p, bed->sim());
        p.peak("pipeline.pool_slots",
               static_cast<double>(bed->pipeline().requestPoolSize()));
        p.count("xdp.hits", static_cast<double>(cache->hits()));
        p.count("xdp.misses", static_cast<double>(cache->misses()));
        digestMeasurement(d, warm);
        digestMeasurement(d, m);
        d.add(cache->hits()).add(cache->misses()).add(ev.numFired());
        r.digest = d.value();
        r.error = conservation(warm);
        if (r.error.empty())
            r.error = conservation(m);
    });
}

/** bench/xdp_acl's cell at filter 0.5: a 2x hostile 64 B flood
 *  against a 1 KB service, half of it dropped in the NIC. */
void
xdpAclPoint(Pass &p, const Params &prm)
{
    p.op("xdp/acl_filter0.5", [&](OpResult &r) {
        TestbedConfig tc;
        tc.workloadId = "xdp_echo_1024";
        tc.seed = prm.seed + 20;
        auto rng = std::make_shared<sim::Random>(tc.seed + 424242);
        tc.xdpVerdict = [rng](const net::Packet &pkt) {
            XdpOutcome out;
            if (pkt.sizeBytes < net::kbPacketBytes && rng->chance(0.5))
                out.verdict = XdpVerdict::Drop;
            return out;
        };
        tc.goodFilter = [](const net::Packet &pkt) {
            return pkt.sizeBytes >= net::kbPacketBytes;
        };
        std::unique_ptr<Testbed> bed;
        {
            Scope s(p, "core.assemble");
            bed = std::make_unique<Testbed>(tc);
        }
        p.noteBuild(tc.workloadId, tc.seed);
        sim::EventQueue &ev = bed->sim().events();
        const double legit_rps = 0.4 * bed->estimateCapacityRps();
        const double legit_gbps = legit_rps * 1024.0 * 8.0 / 1e9;
        const double flood_gbps = 2.0 * legit_rps * 64.0 * 8.0 / 1e9;
        const sim::Tick warmup = sim::msToTicks(1.0);
        const sim::Tick window = sim::msToTicks(prm.smoke ? 1.0 : 10.0);

        net::TrafficGen flood(bed->sim(), "flood", bed->upLink(),
                              net::SizeDist::fixed(64),
                              net::Proto::Udp);
        flood.startAtRate(flood_gbps,
                          bed->sim().now() + warmup + window);
        const std::uint64_t e0 = ev.numFired();
        Measurement m;
        {
            Scope s(p, "core.measure");
            m = bed->measure(legit_gbps, warmup, window);
        }
        flood.stop();
        countWindow(p, ev.numFired() - e0,
                    m.completed + m.floodCompleted);
        countStages(p, m.stageStats);
        countSim(p, bed->sim());
        p.peak("pipeline.pool_slots",
               static_cast<double>(bed->pipeline().requestPoolSize()));
        Digest d;
        digestMeasurement(d, m);
        r.digest = d.add(ev.numFired()).value();
        r.error = conservation(m);
    });
}

void
testbedSweep(Pass &p, const Params &prm)
{
    ExperimentOptions opts;
    opts.seed = prm.seed;
    opts.targetSamples = prm.smoke ? kSweepSamplesSmoke : kSweepSamples;
    opts.warmup = sim::msToTicks(prm.smoke ? 0.2 : 1.0);
    opts.minWindow = sim::msToTicks(prm.smoke ? 0.2 : 1.0);

    // Smoke length keeps one row per drive and engine path: open-loop
    // network, closed-loop fio, local crypto jobs, coalescing REM.
    const std::set<std::string> smoke_rows{"micro_udp_64", "fio_read",
                                           "crypto_aes", "rem_img"};
    std::vector<std::pair<std::string, hw::Platform>> ids;
    for (const auto &row : fig4Rows())
        if (!prm.smoke || smoke_rows.count(row.first))
            ids.push_back(row);

    // Fig-4 band check: the model's error against its only
    // reference, printed beside the speed numbers.
    int tput_in = 0, p99_in = 0, banded = 0;
    for (const auto &[id, snic_side] : ids) {
        const CellOutcome host =
            sweepCell(p, id, hw::Platform::HostCpu, opts);
        const CellOutcome snic = sweepCell(p, id, snic_side, opts);
        const auto expect = paper::fig4Expectation(id);
        if (!expect || host.maxGbps <= 0.0 || host.p99Us <= 0.0)
            continue;
        const double tput = snic.maxGbps / host.maxGbps;
        const double p99 = snic.p99Us / host.p99Us;
        ++banded;
        tput_in += expect->throughputRatio.contains(tput);
        p99_in += expect->p99Ratio.contains(p99);
        char line[256];
        std::snprintf(line, sizeof line,
                      "fig4 %-22s tput %6.2fx %-16s p99 %6.2fx %s",
                      id.c_str(), tput,
                      bandCheck(tput, expect->throughputRatio).c_str(),
                      p99, bandCheck(p99, expect->p99Ratio).c_str());
        p.notes.emplace_back(line);
    }
    char summary[160];
    std::snprintf(summary, sizeof summary,
                  "fig4 band check: throughput %d/%d in band, p99 "
                  "%d/%d in band",
                  tput_in, banded, p99_in, banded);
    p.notes.emplace_back(summary);

    e7Policies(p, prm);
    nicachePoint(p, prm);
    xdpAclPoint(p, prm);
}

// --- rack_m32_lq -----------------------------------------------------

void
rackM32(Pass &p, const Params &prm)
{
    p.op("rack/m32_least_queue", [&](OpResult &r) {
        RackConfig cfg;
        cfg.workloadId = "micro_udp_1024";
        cfg.platform = hw::Platform::HostCpu;
        cfg.servers = 32;
        cfg.policy = net::DispatchPolicy::LeastQueue;
        cfg.seed = prm.seed;
        std::unique_ptr<Rack> rack;
        {
            Scope s(p, "core.assemble");
            rack = std::make_unique<Rack>(cfg);
        }
        for (unsigned m = 0; m < cfg.servers; ++m)
            p.noteBuild(cfg.workloadId, cfg.seed);
        sim::EventQueue &ev = rack->sim().events();
        const sim::Tick window = sim::msToTicks(
            prm.smoke ? kRackWindowMsSmoke : kRackWindowMs);
        const std::uint64_t e0 = ev.numFired();
        RackMeasurement rm;
        {
            Scope s(p, "core.measure");
            rm = rack->measure(6.0 * cfg.servers, sim::msToTicks(1.0),
                               window);
        }
        countWindow(p, ev.numFired() - e0, rm.aggregate.completed);
        countSim(p, rack->sim());
        double pool = 0.0;
        for (unsigned m = 0; m < cfg.servers; ++m)
            pool += static_cast<double>(
                rack->server(m).pipeline().requestPoolSize());
        p.peak("pipeline.pool_slots", pool);

        Digest d;
        digestMeasurement(d, rm.aggregate);
        for (const std::uint64_t n : rm.dispatched)
            d.add(n);
        d.add(rm.imbalance);
        for (const Measurement &mi : rm.perServer) {
            digestMeasurement(d, mi);
            countStages(p, mi.stageStats);
            if (r.error.empty())
                r.error = conservation(mi);
        }
        r.digest = d.add(ev.numFired()).value();
    });
}

// --- fleet_day -------------------------------------------------------

/** Per-member sustainable rate from the analytic estimator, as
 *  bench/fleet_diurnal sizes its day. */
double
perMemberGbps(Pass &p, hw::Platform platform, std::uint64_t seed)
{
    RackConfig rc;
    rc.workloadId = "micro_udp_1024";
    rc.platform = platform;
    rc.servers = 1;
    rc.policy = net::DispatchPolicy::PassThrough;
    rc.seed = seed;
    std::unique_ptr<Rack> probe;
    {
        Scope s(p, "core.assemble");
        probe = std::make_unique<Rack>(rc);
    }
    p.noteBuild(rc.workloadId, rc.seed);
    return probe->estimateCapacityRps() * probe->meanRequestBytes() *
           8.0 / 1e9;
}

void
fleetDay(Pass &p, const Params &prm)
{
    p.op("fleet/day_p99_feedback", [&](OpResult &r) {
        constexpr unsigned members = 4;
        const std::vector<hw::Platform> platforms{
            hw::Platform::HostCpu, hw::Platform::SnicCpu};
        double weakest = 1e18;
        for (const hw::Platform pl : platforms)
            weakest = std::min(weakest, perMemberGbps(p, pl, prm.seed));
        const double rack_capacity = weakest * members;

        net::DcTraceParams tp;
        tp.meanGbps = 0.45 * rack_capacity;
        tp.diurnalSwing = 0.6;
        tp.noiseSigma = 0.10;
        tp.burstProbability = 0.05;
        tp.burstMultiplier = 2.0;
        tp.peakGbps = 0.85 * rack_capacity;
        tp.bins = prm.smoke ? 12 : 72;
        sim::Random trace_rng(prm.seed + 41);
        const std::vector<double> trace = makeDcTrace(tp, trace_rng);

        FleetConfig fc;
        for (const hw::Platform pl : platforms) {
            RackConfig rc;
            rc.workloadId = "micro_udp_1024";
            rc.platform = pl;
            rc.servers = members;
            rc.policy = net::DispatchPolicy::LeastQueue;
            rc.seed = prm.seed;
            fc.racks.push_back(rc);
        }
        fc.autoscaler.kind = AutoscalerKind::P99Feedback;
        fc.autoscaler.minMembers = 1;
        fc.autoscaler.upUtil = 0.65;
        fc.autoscaler.downUtil = 0.30;
        fc.autoscaler.p99BudgetUs = 500.0;
        fc.autoscaler.p99LowFraction = 0.5;
        fc.autoscaler.burstHeadroom = 2.2;
        fc.autoscaler.hysteresisBins = 1;
        fc.autoscaler.cooldownBins = 3;
        fc.traceGbps = trace;
        fc.binTicks = sim::msToTicks(prm.smoke ? 2.0 : 10.0);
        fc.realSecondsPerBin =
            (prm.smoke ? 3600.0 : 86400.0) / static_cast<double>(tp.bins);
        fc.sloP99BudgetUs = 500.0;
        fc.wakeLatencyUs = 1000.0;
        fc.seed = prm.seed;

        std::unique_ptr<Fleet> fleet;
        {
            Scope s(p, "core.assemble");
            fleet = std::make_unique<Fleet>(fc);
        }
        for (std::size_t i = 0; i < platforms.size() * members; ++i)
            p.noteBuild("micro_udp_1024", prm.seed);
        FleetResult res;
        {
            Scope s(p, "fleet.run");
            res = fleet->run();
        }
        sim::EventQueue &ev = fleet->sim().events();
        countWindow(p, ev.numFired(), res.completed);
        countSim(p, fleet->sim());
        p.count("fleet.bins", static_cast<double>(tp.bins));
        p.count("fleet.scale_events",
                static_cast<double>(res.events.size()));

        Digest d;
        d.add(ev.numFired())
            .add(res.completed)
            .add(res.realKwh)
            .add(res.sloViolationMinutes)
            .add(res.tcoUsd5yr);
        for (const ScaleEvent &e : res.events) {
            d.add(e.bin).add(e.at).add(static_cast<std::uint64_t>(e.rack));
            d.add(static_cast<std::uint64_t>(e.member))
                .add(static_cast<std::uint64_t>(e.up));
            if (e.bin >= tp.bins)
                r.error = "scale event outside the day";
        }
        std::uint64_t completed = 0;
        double pool = 0.0;
        for (unsigned k = 0; k < res.racks.size(); ++k) {
            const FleetRackResult &rr = res.racks[k];
            completed += rr.completed;
            d.add(rr.completed)
                .add(rr.realKwh)
                .add(rr.asleepTicks)
                .add(rr.meanDispatchable)
                .add(rr.latency.count())
                .add(rr.latency.p99());
            for (const double v : rr.binP99Us)
                d.add(v);
            for (const unsigned v : rr.binMembers)
                d.add(static_cast<std::uint64_t>(v));
            Rack &rack = fleet->rack(k);
            for (const std::uint64_t n : rack.tor().dispatched())
                d.add(n);
            p.count("fleet.asleep_ticks",
                    static_cast<double>(rr.asleepTicks));
            p.count("fleet.member_ticks",
                    static_cast<double>(fc.binTicks) *
                        static_cast<double>(tp.bins * rack.servers()));
            for (unsigned m = 0; m < rack.servers(); ++m) {
                // Fleet::run returns no stage stats; the members'
                // pipelines hold the final bin's window.
                const std::vector<StageSnapshot> stages =
                    rack.server(m).pipeline().snapshot();
                digestStages(d, stages);
                countStages(p, stages);
                pool += static_cast<double>(
                    rack.server(m).pipeline().requestPoolSize());
                if (r.error.empty())
                    r.error = conservation(stages);
            }
        }
        p.peak("pipeline.pool_slots", pool);
        if (r.error.empty() && completed != res.completed)
            r.error = "rack completions do not sum to the fleet's";
        r.digest = d.value();
    });
}

// --- chain_advisor ---------------------------------------------------

/** Decompress -> REM scan -> KVS store (bench/chain_placement). */
const std::vector<std::string> kDecScanStore{"comp_app_dec", "rem_exe",
                                             "redis_a"};

void
chainSweep(Pass &p, const Params &prm)
{
    using hw::Platform;
    const std::vector<std::vector<Platform>> placements{
        {Platform::HostCpu, Platform::HostCpu, Platform::HostCpu},
        {Platform::SnicAccel, Platform::SnicAccel, Platform::SnicCpu},
        {Platform::SnicAccel, Platform::SnicAccel, Platform::HostCpu},
        {Platform::HostCpu, Platform::SnicAccel, Platform::HostCpu},
        {Platform::SnicCpu, Platform::SnicAccel, Platform::SnicCpu},
        {Platform::SnicAccel, Platform::HostCpu, Platform::HostCpu},
    };
    ExperimentOptions opts;
    opts.seed = prm.seed;
    opts.targetSamples = prm.smoke ? kChainSamplesSmoke : kChainSamples;
    opts.warmup = sim::msToTicks(1.0);
    opts.minWindow = sim::msToTicks(2.0);

    for (const auto &where : placements) {
        p.op("chain/" + placementLabel(where), [&](OpResult &r) {
            TestbedConfig cfg;
            for (std::size_t k = 0; k < kDecScanStore.size(); ++k)
                cfg.chain.then(kDecScanStore[k], where[k]);
            cfg.seed = prm.seed;
            std::unique_ptr<Testbed> bed;
            {
                Scope s(p, "core.assemble");
                bed = std::make_unique<Testbed>(cfg);
            }
            for (const std::string &id : kDecScanStore)
                p.noteBuild(id, cfg.seed);
            sim::EventQueue &ev = bed->sim().events();
            Capacity cap;
            {
                Scope s(p, "search.capacity");
                cap = findCapacity(*bed, opts);
            }
            p.count("search.windows", cap.attempts);
            Digest d;
            d.add(cap.requestGbps)
                .add(cap.rps)
                .add(static_cast<std::uint64_t>(cap.attempts));
            for (const double load : {0.5, 0.7, 0.9}) {
                const std::uint64_t e0 = ev.numFired();
                Measurement m;
                {
                    Scope s(p, "core.measure");
                    m = bed->measure(cap.requestGbps * load, opts.warmup,
                                     windowFor(cap.rps * load, opts));
                }
                countWindow(p, ev.numFired() - e0, m.completed);
                countStages(p, m.stageStats);
                digestMeasurement(d, m);
                if (r.error.empty())
                    r.error = conservation(m);
            }
            countSim(p, bed->sim());
            p.peak("pipeline.pool_slots",
                   static_cast<double>(
                       bed->pipeline().requestPoolSize()));
            r.digest = d.add(ev.numFired()).value();
        });
    }
}

/** Digest and check the parts every advice candidate type shares. */
template <typename Candidate>
void
digestCandidate(Digest &d, const Candidate &c, std::string &error)
{
    for (const hw::Platform w : c.where)
        d.add(static_cast<std::uint64_t>(w));
    d.add(c.key.combined)
        .add(static_cast<std::uint64_t>(c.evaluated))
        .add(c.capacityGbps)
        .add(c.capacityRps)
        .add(c.p99Us)
        .add(static_cast<std::uint64_t>(c.serversForDemand))
        .add(c.tco5yrUsd)
        .add(static_cast<std::uint64_t>(c.meetsSlo));
    if (c.evaluated && error.empty() &&
        (c.capacityGbps <= 0.0 || c.p99Us <= 0.0))
        error = "evaluated candidate " + placementLabel(c.where) +
                " measured no capacity or latency";
}

template <typename Advice>
void
digestPicks(Digest &d, const Advice &a, std::string &error)
{
    d.add(static_cast<std::uint64_t>(a.heuristicPick + 1))
        .add(static_cast<std::uint64_t>(a.desPick + 1))
        .add(static_cast<std::uint64_t>(a.sloFeasible));
    const auto n = static_cast<int>(a.candidates.size());
    if (a.desPick < 0 || a.desPick >= n ||
        !a.candidates[static_cast<std::size_t>(a.desPick)].evaluated)
        error = "DES pick is not an evaluated candidate";
    else if (a.heuristicPick < 0 || a.heuristicPick >= n)
        error = "heuristic pick out of range";
}

void
advisorShowdown(Pass &p, const Params &prm, const char *name,
                const SloConstraint &slo)
{
    p.op(std::string("advisor/") + name, [&](OpResult &r) {
        ChainAdvisorOptions opts;
        opts.seed = prm.seed;
        opts.loadFactor = 0.7;
        opts.demandGbps = 40.0;
        opts.desBudget = prm.smoke ? kDesBudgetSmoke : kDesBudget;
        opts.targetSamples =
            prm.smoke ? kChainSamplesSmoke : kChainSamples;
        ChainAdvice a;
        {
            Scope s(p, "advisor.search");
            a = adviseChainPlacement(kDecScanStore, slo, opts);
        }
        Digest d;
        digestPicks(d, a, r.error);
        double evaluated = 0.0;
        for (const ChainPlacementCandidate &c : a.candidates) {
            digestCandidate(d, c, r.error);
            d.add(c.serverWatts);
            if (!c.evaluated)
                continue;
            evaluated += 1.0;
            for (const std::string &id : kDecScanStore)
                p.noteBuild(id, opts.seed);
        }
        p.count("advisor.enumerated",
                static_cast<double>(a.candidates.size()));
        p.count("advisor.des_evaluated", evaluated);
        r.digest = d.value();
    });
}

/** chain_placement --rack's double REM scan under a per-unit floor
 *  and a loose p99. */
void
rackShowdown(Pass &p, const Params &prm)
{
    p.op("rack_advisor/double_rem", [&](OpResult &r) {
        const std::vector<std::string> scan_pair{"rem_img", "rem_img"};
        RackChainAdvisorOptions opts;
        opts.seed = prm.seed;
        opts.loadFactor = 0.7;
        opts.maxMembers = 2;
        opts.desBudget = prm.smoke ? kDesBudgetSmoke : kDesBudget;
        opts.targetSamples =
            prm.smoke ? kChainSamplesSmoke : kChainSamples;
        opts.demandGbps = 26.0;
        RackChainAdvice a;
        {
            Scope s(p, "advisor.search");
            a = adviseRackChainPlacement(scan_pair,
                                         SloConstraint{150.0, 25.0}, opts);
        }
        Digest d;
        digestPicks(d, a, r.error);
        d.add(static_cast<std::uint64_t>(a.enumerated))
            .add(static_cast<std::uint64_t>(a.desEligible));
        double evaluated = 0.0;
        for (const RackChainPlacementCandidate &c : a.candidates) {
            digestCandidate(d, c, r.error);
            for (const unsigned m : c.member)
                d.add(static_cast<std::uint64_t>(m));
            d.add(c.rackWatts)
                .add(static_cast<std::uint64_t>(c.unitsForDemand));
            if (!c.evaluated)
                continue;
            evaluated += 1.0;
            for (const std::string &id : scan_pair)
                p.noteBuild(id, opts.seed);
        }
        p.count("advisor.enumerated", static_cast<double>(a.enumerated));
        p.count("advisor.des_evaluated", evaluated);
        r.digest = d.value();
    });
}

void
chainAdvisor(Pass &p, const Params &prm)
{
    chainSweep(p, prm);
    advisorShowdown(p, prm, "p99_60us", SloConstraint{60.0, 1.0});
    advisorShowdown(p, prm, "p99_2000us", SloConstraint{2000.0, 1.0});
    rackShowdown(p, prm);
}

} // anonymous namespace

std::vector<std::pair<std::string, hw::Platform>>
fig4Rows()
{
    const workloads::Fig4Lineup lineup = workloads::fig4Lineup();
    std::vector<std::pair<std::string, hw::Platform>> rows;
    for (const std::string &id : lineup.softwareOnly)
        rows.emplace_back(id, hw::Platform::SnicCpu);
    for (const std::string &id : lineup.hardwareAccelerated)
        rows.emplace_back(id, hw::Platform::SnicAccel);
    return rows;
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs{
        {"testbed_sweep", testbedSweep},
        {"rack_m32_lq", rackM32},
        {"fleet_day", fleetDay},
        {"chain_advisor", chainAdvisor},
    };
    return defs;
}

} // namespace perfbench
