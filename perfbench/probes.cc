/**
 * @file
 * Isolated probes: each replays one layer's public API with inputs
 * shaped like the workload that leans on it, and reports host time
 * per call. Calls too short for the clock are timed in batches and
 * each batch contributes its per-call mean as one sample.
 */

#include "core/advisor.hh"
#include "core/rack.hh"
#include "net/tor_switch.hh"
#include "perfbench.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using namespace snic;

/** Keeps results the optimiser would otherwise discard. */
volatile std::uint64_t g_sink = 0;

/**
 * Mean pending events over a rack_m32_lq window at seed 1, sampled
 * every 50 us (maximum 181): the depth the timer wheel works at on
 * the simulator's hot loop.
 */
constexpr std::size_t kRackPendingDepth = 138;

/** workloads.setup_s and workloads.plan_ns over the sweep's mix: each
 *  Fig-4 id is built and set up once, then plans requests on the
 *  host and on its SNIC side. */
void
isoWorkloads(std::uint64_t seed, std::map<std::string, IsoResult> &out)
{
    constexpr int plan_batches = 20, plans_per_batch = 10;
    std::vector<double> setup_s, plan_ns;
    sim::Random rng(seed + 7);
    for (const auto &[id, snic_side] : fig4Rows()) {
        const double t0 = wallSec();
        workloads::WorkloadPtr w = workloads::makeWorkload(id);
        w->setup(rng);
        setup_s.push_back(wallSec() - t0);

        for (const hw::Platform platform :
             {hw::Platform::HostCpu, snic_side}) {
            if (!w->supports(platform))
                continue;
            for (int b = 0; b < plan_batches; ++b) {
                const double p0 = wallSec();
                for (int i = 0; i < plans_per_batch; ++i) {
                    const auto plan = w->plan(
                        w->spec().sizes.sample(rng), platform, rng);
                    g_sink = g_sink + plan.responseBytes;
                }
                plan_ns.push_back((wallSec() - p0) * 1e9 /
                                  plans_per_batch);
            }
        }
    }
    out["workloads.setup_s"] = summarise(setup_s, setup_s.size());
    out["workloads.plan_ns"] =
        summarise(plan_ns, plan_ns.size() * plans_per_batch);
}

/** EventQueue schedule + fire at the rack's pending depth, with
 *  horizons up to ~2 us (packet gaps to service times). */
IsoResult
isoSched(std::uint64_t seed)
{
    constexpr int batches = 200;
    constexpr std::uint64_t fires_per_batch = 2000;
    sim::EventQueue q;
    sim::Random rng(seed + 11);
    auto refill = [&] {
        while (q.numPending() < kRackPendingDepth)
            q.schedule(q.curTick() + 1 + rng.uniformInt(0, 2000000),
                       [] {});
    };
    refill();
    std::vector<double> ns;
    for (int b = 0; b < batches; ++b) {
        const double t0 = wallSec();
        const std::uint64_t f0 = q.numFired();
        while (q.numFired() - f0 < fires_per_batch) {
            refill();
            q.runUntil(q.curTick() + 20000);
        }
        ns.push_back((wallSec() - t0) * 1e9 /
                     static_cast<double>(q.numFired() - f0));
    }
    return summarise(ns, batches * fires_per_batch);
}

/** stats.record_ns (rack-shaped latencies) and stats.merge_ns /
 *  stats.reset_ns (fleet bin boundaries: member windows merged into
 *  the rack view, then reset). */
void
isoHistogram(std::uint64_t seed, std::map<std::string, IsoResult> &out)
{
    constexpr int batches = 200, values = 4096;
    sim::Random rng(seed + 13);
    std::vector<std::uint64_t> ticks(values);
    for (std::uint64_t &t : ticks)  // ~1-10 us at 1 ps per tick
        t = 1000000 + rng.uniformInt(0, 9000000);

    stats::Histogram h;
    std::vector<double> record_ns;
    for (int b = 0; b < batches; ++b) {
        const double t0 = wallSec();
        for (const std::uint64_t t : ticks)
            h.record(t);
        record_ns.push_back((wallSec() - t0) * 1e9 / values);
    }
    g_sink = g_sink + h.count();
    out["stats.record_ns"] =
        summarise(record_ns, static_cast<std::size_t>(batches) * values);

    constexpr int members = 4, bins = 200;
    std::vector<stats::Histogram> member(members);
    stats::Histogram rack;
    std::vector<double> merge_ns, reset_ns;
    for (int bin = 0; bin < bins; ++bin) {
        for (stats::Histogram &m : member)
            for (int i = 0; i < 1024; ++i)
                m.record(ticks[static_cast<std::size_t>(
                    (bin * 1024 + i) % values)]);
        for (stats::Histogram &m : member) {
            const double t0 = wallSec();
            rack.merge(m);
            merge_ns.push_back((wallSec() - t0) * 1e9);
        }
        for (stats::Histogram &m : member) {
            const double t0 = wallSec();
            m.reset();
            reset_ns.push_back((wallSec() - t0) * 1e9);
        }
        rack.reset();
    }
    out["stats.merge_ns"] = summarise(merge_ns, merge_ns.size());
    out["stats.reset_ns"] = summarise(reset_ns, reset_ns.size());
}

/** One least_queue pick with the batched probe over @p members, of
 *  which @p asleep are not live. */
IsoResult
isoTorPick(std::uint64_t seed, unsigned members, unsigned asleep)
{
    constexpr int batches = 200, picks = 1000;
    net::TorConfig cfg;
    cfg.policy = net::DispatchPolicy::LeastQueue;
    cfg.members = members;
    cfg.seed = seed;
    net::TorSwitch tor(cfg);
    std::vector<std::uint64_t> load(members, 0);
    std::uint64_t *l = load.data();
    tor.setBatchLoadProbe(
        [l](const unsigned *ids, unsigned n, std::uint64_t *dst) {
            for (unsigned i = 0; i < n; ++i)
                dst[i] = l[ids ? ids[i] : i];
        });
    for (unsigned m = 0; m < asleep; ++m)
        tor.setLive(members - 1 - m, false);

    sim::Random rng(seed + 17);
    net::Packet pkt;
    std::vector<double> ns;
    for (int b = 0; b < batches; ++b) {
        const double t0 = wallSec();
        for (int i = 0; i < picks; ++i) {
            pkt.flowHash = rng.next();
            ++load[tor.pick(pkt)];
            // Completions drain a member now and then.
            std::uint64_t &d = load[pkt.flowHash % members];
            d -= d > 0 ? 1 : 0;
        }
        ns.push_back((wallSec() - t0) * 1e9 / picks);
    }
    return summarise(ns, static_cast<std::size_t>(batches) * picks);
}

/** advisor.key_us: placementKey over every Table-3-valid placement
 *  of the decompress -> REM -> KVS chain. */
IsoResult
isoAdvisorKey(std::uint64_t seed)
{
    const std::vector<std::string> ids{"comp_app_dec", "rem_exe",
                                       "redis_a"};
    std::vector<workloads::FunctionProfile> profiles;
    for (const std::string &id : ids)
        profiles.push_back(workloads::functionProfile(id, seed));

    std::vector<std::vector<hw::Platform>> candidates{{}};
    for (const workloads::FunctionProfile &p : profiles) {
        std::vector<std::vector<hw::Platform>> next;
        for (const auto &prefix : candidates) {
            for (const hw::Platform w :
                 {hw::Platform::HostCpu, hw::Platform::SnicCpu,
                  hw::Platform::SnicAccel}) {
                const bool ok = w == hw::Platform::HostCpu
                                    ? p.supportsHost
                                : w == hw::Platform::SnicCpu
                                    ? p.supportsSnicCpu
                                    : p.supportsAccel;
                if (!ok)
                    continue;
                next.push_back(prefix);
                next.back().push_back(w);
            }
        }
        candidates = std::move(next);
    }

    constexpr int batches = 200, rounds = 10;
    std::vector<double> us;
    for (int b = 0; b < batches; ++b) {
        const double t0 = wallSec();
        for (int r = 0; r < rounds; ++r)
            for (const auto &where : candidates)
                g_sink = g_sink + static_cast<std::uint64_t>(
                    core::placementKey(profiles, where).combined);
        us.push_back((wallSec() - t0) * 1e6 /
                     static_cast<double>(rounds * candidates.size()));
    }
    return summarise(us, static_cast<std::size_t>(batches) * rounds *
                             candidates.size());
}

} // anonymous namespace

std::map<std::string, IsoResult>
runIsoProbes(std::uint64_t seed)
{
    std::map<std::string, IsoResult> out;
    isoWorkloads(seed, out);
    out["sim.sched_ns_per_event"] = isoSched(seed);
    isoHistogram(seed, out);
    out["net.tor_pick_ns"] = isoTorPick(seed, 32, 0);
    out["net.tor_pick_filtered_ns"] = isoTorPick(seed, 4, 2);
    out["advisor.key_us"] = isoAdvisorKey(seed);
    return out;
}

double
torProbeShare(std::uint64_t seed)
{
    auto window = [seed](net::DispatchPolicy policy) {
        core::RackConfig cfg;
        cfg.workloadId = "micro_udp_1024";
        cfg.servers = 32;
        cfg.policy = policy;
        cfg.seed = seed;
        core::Rack rack(cfg);
        const double t0 = wallSec();
        rack.measure(6.0 * cfg.servers, sim::msToTicks(1.0),
                     sim::msToTicks(8.0));
        return wallSec() - t0;
    };
    std::vector<double> lq, rr;
    for (int i = 0; i < 2; ++i) {
        lq.push_back(window(net::DispatchPolicy::LeastQueue));
        rr.push_back(window(net::DispatchPolicy::RoundRobin));
    }
    const double t_lq = summarise(lq, lq.size()).median;
    const double t_rr = summarise(rr, rr.size()).median;
    return t_lq > 0.0 ? (t_lq - t_rr) / t_lq : 0.0;
}

} // namespace perfbench
