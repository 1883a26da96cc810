/**
 * @file
 * Offload advisor implementation.
 *
 * Predictions are analytic: plans are sampled and priced on each
 * platform's cost model; waiting time comes from an M/M/c (Erlang-C)
 * approximation at 90 % load; power from the calibrated power model
 * at the matching utilization. No simulation is run, which is the
 * point — Strategy 2 asks for an a-priori decision procedure.
 */

#include "core/advisor.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "core/chain.hh"
#include "core/rack.hh"
#include "core/tco.hh"
#include "core/throughput_search.hh"
#include "hw/specs.hh"
#include "sim/logging.hh"

namespace snic::core {

namespace {

/** Erlang-C probability of queueing for c servers at load rho. */
double
erlangC(unsigned c, double rho)
{
    // rho is per-system utilization in [0,1); a = offered erlangs.
    const double a = rho * c;
    double sum = 0.0;
    double term = 1.0;
    for (unsigned k = 0; k < c; ++k) {
        if (k > 0)
            term *= a / k;
        sum += term;
    }
    const double top = term * a / c / (1.0 - rho);
    return top / (sum + top);
}

/** Approximate p99 sojourn for M/M/c with mean service s at rho. */
double
p99SojournUs(double service_us, unsigned servers, double rho,
             double fixed_us)
{
    if (rho >= 0.999)
        return 1e9;
    const double pw = erlangC(servers, rho);
    const double wq_mean =
        pw * service_us / (servers * (1.0 - rho));
    // Exponential-tail approximation: p99 of (wait + service).
    const double mean_sojourn = wq_mean + service_us;
    return fixed_us + mean_sojourn * std::log(100.0);
}

} // anonymous namespace

Advice
adviseOffload(const std::string &workload_id, const SloConstraint &slo,
              std::uint64_t seed)
{
    Advice advice;
    advice.workloadId = workload_id;

    const hw::Platform all[] = {hw::Platform::HostCpu,
                                hw::Platform::SnicCpu,
                                hw::Platform::SnicAccel};

    double best_score = -1.0;
    double best_any_capacity = -1.0;
    hw::Platform best_any = hw::Platform::HostCpu;

    for (hw::Platform p : all) {
        PlatformPrediction pred;
        pred.platform = p;

        // Probe support without constructing an invalid testbed.
        {
            auto probe = workloads::makeWorkload(workload_id);
            pred.supported = probe->supports(p);
        }
        if (!pred.supported) {
            advice.predictions.push_back(pred);
            continue;
        }

        TestbedConfig config;
        config.workloadId = workload_id;
        config.platform = p;
        config.seed = seed;
        Testbed testbed(config);

        pred.capacityRps = testbed.estimateCapacityRps();
        const double mean_bytes =
            testbed.workload().spec().sizes.meanBytes();
        pred.capacityGbps =
            pred.capacityRps * mean_bytes * 8.0 / 1e9;

        const auto &spec = testbed.workload().spec();
        const unsigned servers =
            p == hw::Platform::SnicAccel
                ? testbed.server().accel(spec.accel).numWorkers()
                : testbed.server().cpuFor(p).numWorkers();
        const double service_us =
            pred.capacityRps > 0.0
                ? servers * 1e6 / pred.capacityRps
                : 0.0;
        // Fixed path latency from the stack model.
        auto stack = stack::makeStack(spec.stack);
        const double fixed_us =
            sim::ticksToUs(stack->fixedLatency(p)) + 2.0;  // + wire
        pred.p99UsAtLoad =
            p99SojournUs(service_us, servers, 0.90, fixed_us);

        // Power at 90 % load.
        const double util = 0.90;
        const bool host_active = p == hw::Platform::HostCpu;
        pred.serverWatts = testbed.power().serverWattsAt(
            host_active ? util : 0.0,
            host_active ? 0.0 : util,
            p == hw::Platform::SnicAccel ? util : 0.0,
            pred.capacityGbps * 0.9);
        pred.rpsPerJoule =
            pred.capacityRps * 0.9 / pred.serverWatts;

        pred.meetsSlo =
            (slo.p99UsMax <= 0.0 || pred.p99UsAtLoad <= slo.p99UsMax) &&
            (slo.minGbps <= 0.0 ||
             pred.capacityGbps * 0.9 >= slo.minGbps);

        if (pred.capacityGbps > best_any_capacity) {
            best_any_capacity = pred.capacityGbps;
            best_any = p;
        }
        if (pred.meetsSlo && pred.rpsPerJoule > best_score) {
            best_score = pred.rpsPerJoule;
            advice.recommended = p;
            advice.sloFeasible = true;
        }
        advice.predictions.push_back(pred);
    }

    std::ostringstream why;
    if (advice.sloFeasible) {
        why << "most energy-efficient platform meeting the SLO: "
            << hw::platformName(advice.recommended);
    } else {
        advice.recommended = best_any;
        why << "no platform meets the SLO; highest-capacity fallback: "
            << hw::platformName(best_any);
    }
    advice.rationale = why.str();
    return advice;
}

// --- Chain placement ---

namespace {

/** Engine lanes per kind (specs; no ServerModel needed). */
unsigned
engineLanes(hw::AccelKind kind)
{
    switch (kind) {
      case hw::AccelKind::Rem:
        return hw::specs::rem_accel::lanes;
      case hw::AccelKind::Pka:
        return hw::specs::pka_accel::lanes;
      case hw::AccelKind::Compression:
        return hw::specs::comp_accel::lanes;
    }
    return 1;
}

// Resource-cost weights for the Meili resource key: host CPU time is
// the expensive resource (big OoO cores, most of the server's price
// and power); SNIC Arm time and engine time are progressively
// cheaper. The heuristic therefore drifts toward engines — which is
// exactly the latency-blindness the DES evaluation corrects.
constexpr double kHostCostWeight = 1.0;
constexpr double kSnicCostWeight = 0.4;
constexpr double kEngineCostWeight = 0.15;

// Combination weights after cross-candidate min-max normalization.
constexpr double kLocationWeight = 0.25;
constexpr double kBandwidthWeight = 0.45;
constexpr double kResourceWeight = 0.30;

// Key-rank cap on DES eligibility: only the best kMaxDesCandidates
// placements by heuristic key may spend DES budget (pruning — the key
// is cheap, the simulation is not).
constexpr std::size_t kMaxDesCandidates = 32;

// Location-key cost of one cross-member hop, in PCIe-crossing
// equivalents (a ToR round trip dwarfs a PCIe DMA).
constexpr double kMemberHopWeight = 2.0;

/** Resolve the hw::Placement vector for a candidate. */
std::vector<hw::Placement>
resolvePlacements(const std::vector<workloads::FunctionProfile> &profiles,
                  const std::vector<hw::Platform> &where)
{
    std::vector<hw::Placement> out;
    out.reserve(where.size());
    for (std::size_t k = 0; k < where.size(); ++k)
        out.push_back({where[k], profiles[k].accel});
    return out;
}

/** Analytic capacity (requests/s) implied by a bandwidth key. */
double
analyticRps(double bandwidth_key)
{
    return bandwidth_key > 0.0 ? 1.0 / bandwidth_key : 1e18;
}

/** Fatal on options no search can honour, naming the field. */
void
checkOptions(const RackChainAdvisorOptions &opts)
{
    if (opts.maxMembers == 0)
        sim::fatal("chain advisor: maxMembers is 0, need at least 1");
    if (opts.desBudget < 1)
        sim::fatal("chain advisor: desBudget %d, need at least 1",
                   opts.desBudget);
    if (!(opts.loadFactor > 0.0 && opts.loadFactor <= 1.0))
        sim::fatal("chain advisor: loadFactor %g outside (0, 1]",
                   opts.loadFactor);
    if (!(opts.demandGbps > 0.0))
        sim::fatal("chain advisor: demandGbps %g, need more than 0",
                   opts.demandGbps);
}

} // anonymous namespace

PlacementKey
placementKey(const std::vector<workloads::FunctionProfile> &profiles,
             const std::vector<hw::Platform> &where)
{
    return rackPlacementKey(profiles, where,
                            std::vector<unsigned>(where.size(), 0));
}

ChainAdvice
adviseChainPlacement(const std::vector<std::string> &function_ids,
                     const SloConstraint &slo,
                     const ChainAdvisorOptions &opts)
{
    RackChainAdvice rack = adviseRackChainPlacement(
        function_ids, slo, RackChainAdvisorOptions{opts, 1});
    ChainAdvice advice;
    advice.functions = std::move(rack.functions);
    advice.heuristicPick = rack.heuristicPick;
    advice.desPick = rack.desPick;
    advice.sloFeasible = rack.sloFeasible;
    advice.rationale = std::move(rack.rationale);
    advice.candidates.reserve(rack.candidates.size());
    for (RackChainPlacementCandidate &r : rack.candidates) {
        ChainPlacementCandidate c;
        c.where = std::move(r.where);
        c.key = r.key;
        c.analyticGbps = r.analyticGbps;
        c.evaluated = r.evaluated;
        c.capacityGbps = r.capacityGbps;
        c.capacityRps = r.capacityRps;
        c.p99Us = r.p99Us;
        c.serverWatts = r.rackWatts;
        c.serversForDemand = r.serversForDemand;
        c.tco5yrUsd = r.tco5yrUsd;
        c.meetsSlo = r.meetsSlo;
        advice.candidates.push_back(std::move(c));
    }
    return advice;
}

// --- Rack-level chain placement ---

PlacementKey
rackPlacementKey(const std::vector<workloads::FunctionProfile> &profiles,
                 const std::vector<hw::Platform> &where,
                 const std::vector<unsigned> &member)
{
    PlacementKey key;
    const auto placements = resolvePlacements(profiles, where);
    const unsigned members =
        member.empty()
            ? 1u
            : *std::max_element(member.begin(), member.end()) + 1;

    // Per-member resource demand: the bandwidth bottleneck is the
    // most loaded resource on any ONE member — spreading a chain is
    // exactly the act of splitting these accumulators.
    std::vector<double> host_ns(members, 0.0), snic_ns(members, 0.0);
    std::vector<std::array<double, 3>> engine_ns(
        members, {0.0, 0.0, 0.0});
    std::vector<double> crossing_bytes(members, 0.0);
    /** Hop payload into each member's ingress wire. */
    std::vector<double> hop_bytes(members, 0.0);
    unsigned pcie_crossings = 0, member_hops = 0;

    double in_bytes = profiles.empty()
                          ? 0.0
                          : profiles.front().meanRequestBytes;
    for (std::size_t k = 0; k < profiles.size(); ++k) {
        const workloads::FunctionProfile &p = profiles[k];
        const unsigned m = member[k];
        switch (where[k]) {
          case hw::Platform::HostCpu:
            host_ns[m] += p.hostCpuNs;
            break;
          case hw::Platform::SnicCpu:
            snic_ns[m] += p.snicCpuNs;
            break;
          case hw::Platform::SnicAccel:
            snic_ns[m] += p.accelStagingNs;
            engine_ns[m][static_cast<int>(p.accel)] += p.engineNs;
            break;
        }
        if (k > 0) {
            if (m != member[k - 1]) {
                // A cross-member hop serializes on the destination's
                // ingress wire; any PCIe crossing is subsumed by it.
                ++member_hops;
                hop_bytes[m] += in_bytes;
            } else if (hw::crossesPcie(placements[k - 1],
                                       placements[k])) {
                ++pcie_crossings;
                crossing_bytes[m] += in_bytes;
            }
        }
        if (p.meanResponseBytes > 0.0)
            in_bytes = p.meanResponseBytes;
    }

    key.location = pcie_crossings + kMemberHopWeight * member_hops;

    double bw = 0.0;
    for (unsigned m = 0; m < members; ++m) {
        bw = std::max(bw, host_ns[m] / 1e9 / hw::specs::hostCoresUsed);
        bw = std::max(bw, snic_ns[m] / 1e9 / hw::specs::snicCores);
        for (int e = 0; e < 3; ++e) {
            if (engine_ns[m][e] > 0.0) {
                const unsigned lanes =
                    engineLanes(static_cast<hw::AccelKind>(e));
                bw = std::max(bw, engine_ns[m][e] / 1e9 / lanes);
            }
        }
        if (crossing_bytes[m] > 0.0) {
            bw = std::max(bw, crossing_bytes[m] /
                                  (hw::specs::pcieGBps * 1e9));
        }
        if (hop_bytes[m] > 0.0) {
            bw = std::max(bw, hop_bytes[m] /
                                  (hw::specs::lineRateGbps * 1e9 / 8.0));
        }
    }
    key.bandwidth = bw;

    double host_total = 0.0, snic_total = 0.0, engine_total = 0.0;
    for (unsigned m = 0; m < members; ++m) {
        host_total += host_ns[m];
        snic_total += snic_ns[m];
        engine_total +=
            engine_ns[m][0] + engine_ns[m][1] + engine_ns[m][2];
    }
    key.resource = (kHostCostWeight * host_total +
                    kSnicCostWeight * snic_total +
                    kEngineCostWeight * engine_total) /
                   1e3;
    return key;
}

RackChainAdvice
adviseRackChainPlacement(const std::vector<std::string> &function_ids,
                         const SloConstraint &slo,
                         const RackChainAdvisorOptions &opts)
{
    checkOptions(opts);
    RackChainAdvice advice;
    advice.functions = function_ids;
    if (function_ids.empty()) {
        advice.rationale = "empty chain";
        return advice;
    }

    // Profile every function once (the metadata the whole search
    // runs on).
    std::vector<workloads::FunctionProfile> profiles;
    profiles.reserve(function_ids.size());
    for (const std::string &id : function_ids)
        profiles.push_back(workloads::functionProfile(id, opts.seed));

    // Every Table 3-valid platform per function.
    std::vector<std::vector<hw::Platform>> options;
    for (const workloads::FunctionProfile &p : profiles) {
        std::vector<hw::Platform> o;
        if (p.supportsHost)
            o.push_back(hw::Platform::HostCpu);
        if (p.supportsSnicCpu)
            o.push_back(hw::Platform::SnicCpu);
        if (p.supportsAccel)
            o.push_back(hw::Platform::SnicAccel);
        if (o.empty()) {
            advice.rationale =
                "function " + p.id + " runs on no platform";
            return advice;
        }
        options.push_back(std::move(o));
    }

    // A rack dispatches packets; it cannot hand a locally generated
    // job to another member. A chain that starts with such a function
    // stays on member 0.
    const unsigned max_members =
        profiles.front().drive == workloads::Drive::Network
            ? opts.maxMembers
            : 1;
    const bool may_span = max_members > 1;

    // Member vectors in restricted-growth form: member 0 first, and
    // a stage may only open member j when members 0..j-1 are already
    // in use. Identical racks make member labels interchangeable, so
    // this enumerates each partition-with-order exactly once — the
    // relabeling symmetry never costs key evaluations.
    std::vector<std::vector<unsigned>> member_vectors;
    std::vector<unsigned> mv(function_ids.size(), 0);
    const auto grow = [&](auto &&self, std::size_t k,
                          unsigned used) -> void {
        if (k == mv.size()) {
            member_vectors.push_back(mv);
            return;
        }
        const unsigned limit = std::min(used + 1, max_members);
        for (unsigned m = 0; m < limit; ++m) {
            mv[k] = m;
            self(self, k + 1, std::max(used, m + 1));
        }
    };
    grow(grow, 1, 1);

    // Full enumeration: platforms x member vectors.
    for (const std::vector<unsigned> &members : member_vectors) {
        std::vector<std::size_t> idx(function_ids.size(), 0);
        for (;;) {
            RackChainPlacementCandidate c;
            c.where.reserve(function_ids.size());
            for (std::size_t k = 0; k < idx.size(); ++k)
                c.where.push_back(options[k][idx[k]]);
            c.member = members;
            c.membersUsed = *std::max_element(members.begin(),
                                              members.end()) +
                            1;
            c.key = rackPlacementKey(profiles, c.where, c.member);
            c.analyticGbps =
                analyticRps(c.key.bandwidth) *
                profiles.front().meanRequestBytes * 8.0 / 1e9;
            advice.candidates.push_back(std::move(c));
            std::size_t k = 0;
            while (k < idx.size() && ++idx[k] == options[k].size()) {
                idx[k] = 0;
                ++k;
            }
            if (k == idx.size())
                break;
        }
    }
    advice.enumerated = advice.candidates.size();

    // Min-max normalize the key components across the candidate set,
    // combine, and sort (heuristic's ranking; ties broken by the
    // placement vector, then the member vector, for determinism).
    auto norm = [&](auto get) {
        double lo = 1e300, hi = -1e300;
        for (const auto &c : advice.candidates) {
            lo = std::min(lo, get(c.key));
            hi = std::max(hi, get(c.key));
        }
        const double span = hi - lo;
        return [lo, span, get](const PlacementKey &k) {
            return span > 0.0 ? (get(k) - lo) / span : 0.0;
        };
    };
    auto nloc = norm([](const PlacementKey &k) { return k.location; });
    auto nbw = norm([](const PlacementKey &k) { return k.bandwidth; });
    auto nres = norm([](const PlacementKey &k) { return k.resource; });
    for (auto &c : advice.candidates) {
        c.key.combined = kLocationWeight * nloc(c.key) +
                         kBandwidthWeight * nbw(c.key) +
                         kResourceWeight * nres(c.key);
    }
    std::sort(advice.candidates.begin(), advice.candidates.end(),
              [](const RackChainPlacementCandidate &a,
                 const RackChainPlacementCandidate &b) {
                  if (a.key.combined != b.key.combined)
                      return a.key.combined < b.key.combined;
                  if (a.where != b.where)
                      return a.where < b.where;
                  return a.member < b.member;
              });

    advice.desEligible =
        std::min(advice.candidates.size(), kMaxDesCandidates);

    // The Meili-style baseline pick: best combined key among
    // candidates whose *analytic* throughput clears the SLO — the
    // heuristic never sees latency.
    advice.heuristicPick = 0;
    for (std::size_t i = 0; i < advice.candidates.size(); ++i) {
        if (slo.minGbps <= 0.0 ||
            advice.candidates[i].analyticGbps >= slo.minGbps) {
            advice.heuristicPick = static_cast<int>(i);
            break;
        }
    }

    // DES order: the heuristic pick, the single-member all-host and
    // all-SNIC-CPU anchors (the safe corners a key-driven ranking
    // tends to starve), then the key ranking — but only
    // key-rank-eligible candidates may spend budget (the prune).
    std::vector<std::size_t> eval_order;
    auto enqueue = [&](std::size_t i) {
        if (i >= advice.desEligible)
            return;
        if (std::find(eval_order.begin(), eval_order.end(), i) ==
            eval_order.end()) {
            eval_order.push_back(i);
        }
    };
    auto enqueue_uniform = [&](hw::Platform p) {
        for (std::size_t i = 0; i < advice.candidates.size(); ++i) {
            const RackChainPlacementCandidate &c = advice.candidates[i];
            if (c.membersUsed != 1)
                continue;
            if (std::all_of(c.where.begin(), c.where.end(),
                            [p](hw::Platform x) { return x == p; })) {
                enqueue(i);
                return;
            }
        }
    };
    enqueue(static_cast<std::size_t>(advice.heuristicPick));
    enqueue_uniform(hw::Platform::HostCpu);
    enqueue_uniform(hw::Platform::SnicCpu);
    for (std::size_t i = 0;
         i < advice.desEligible &&
         eval_order.size() < static_cast<std::size_t>(opts.desBudget);
         ++i) {
        enqueue(i);
    }

    ExperimentOptions eo;
    eo.seed = opts.seed;
    eo.loadFactor = opts.loadFactor;
    eo.targetSamples = opts.targetSamples;
    eo.warmup = sim::msToTicks(1.0);
    eo.minWindow = sim::msToTicks(2.0);

    for (std::size_t i : eval_order) {
        RackChainPlacementCandidate &c = advice.candidates[i];
        ChainSpec chain;
        for (std::size_t k = 0; k < function_ids.size(); ++k)
            chain.then(function_ids[k], c.where[k], c.member[k]);

        // Capacity search, then one window at the operating point.
        const auto run = [&](auto &system) {
            const Capacity cap = findCapacity(system, eo);
            c.evaluated = true;
            c.capacityGbps = cap.requestGbps;
            c.capacityRps = cap.rps;
            return system.measure(
                cap.requestGbps * opts.loadFactor, eo.warmup,
                windowFor(cap.rps * opts.loadFactor, eo));
        };
        std::vector<double> member_watts;
        if (c.membersUsed == 1) {
            // A plain Testbed: a 1-member PassThrough rack replays it
            // bitwise, and unlike a Rack it accepts a chain that
            // starts with a locally driven function.
            TestbedConfig cfg;
            cfg.chain = chain;
            cfg.seed = opts.seed;
            Testbed bed(cfg);
            const Measurement m = run(bed);
            c.p99Us = m.p99Us();
            c.rackWatts = m.energy.avgServerWatts;
            member_watts.push_back(c.rackWatts);
        } else {
            RackConfig cfg;
            cfg.chain = chain;
            cfg.servers = c.membersUsed;
            cfg.policy = net::DispatchPolicy::RoundRobin;
            cfg.seed = opts.seed;
            Rack rack(cfg);
            const RackMeasurement rm = run(rack);
            c.p99Us = rm.aggregate.p99Us();
            c.rackWatts = rm.aggregate.energy.avgServerWatts;
            for (const Measurement &m : rm.perServer)
                member_watts.push_back(m.energy.avgServerWatts);
        }

        // TCO: ceil(demand / unit throughput) rack units; every unit
        // prices all its members, with a SNIC only on members that
        // host a SNIC-placed stage.
        const double per_unit = c.capacityGbps * opts.loadFactor;
        c.unitsForDemand =
            per_unit > 0.0 ? static_cast<unsigned>(std::ceil(
                                 opts.demandGbps / per_unit))
                           : 0;
        c.serversForDemand = c.unitsForDemand * c.membersUsed;
        double unit_tco = 0.0;
        for (unsigned m = 0; m < c.membersUsed; ++m) {
            bool with_snic = false;
            for (std::size_t k = 0; k < c.where.size(); ++k) {
                if (c.member[k] == m &&
                    c.where[k] != hw::Platform::HostCpu) {
                    with_snic = true;
                }
            }
            unit_tco += computeColumn(1, member_watts[m], with_snic)
                            .fiveYearTcoUsd;
        }
        c.tco5yrUsd = static_cast<double>(c.unitsForDemand) * unit_tco;
        c.meetsSlo =
            (slo.p99UsMax <= 0.0 || c.p99Us <= slo.p99UsMax) &&
            (slo.minGbps <= 0.0 || per_unit >= slo.minGbps);
    }

    // DES pick: the SLO-meeting evaluated candidate with the lowest
    // fleet TCO; fall back to the lowest measured p99.
    int best = -1;
    for (std::size_t i = 0; i < advice.candidates.size(); ++i) {
        const RackChainPlacementCandidate &c = advice.candidates[i];
        if (!c.evaluated)
            continue;
        if (best < 0) {
            best = static_cast<int>(i);
            continue;
        }
        const RackChainPlacementCandidate &b =
            advice.candidates[static_cast<std::size_t>(best)];
        if (c.meetsSlo != b.meetsSlo) {
            if (c.meetsSlo)
                best = static_cast<int>(i);
            continue;
        }
        if (c.meetsSlo ? c.tco5yrUsd < b.tco5yrUsd
                       : c.p99Us < b.p99Us) {
            best = static_cast<int>(i);
        }
    }
    advice.desPick = best;
    advice.sloFeasible =
        best >= 0 &&
        advice.candidates[static_cast<std::size_t>(best)].meetsSlo;

    // Placements print as platform@member only when the search may
    // span members.
    std::ostringstream why;
    auto describe = [&](int i) -> std::string {
        if (i < 0)
            return "(none)";
        std::ostringstream s;
        const RackChainPlacementCandidate &c =
            advice.candidates[static_cast<std::size_t>(i)];
        for (std::size_t k = 0; k < c.where.size(); ++k) {
            s << (k ? "+" : "") << hw::platformName(c.where[k]);
            if (may_span)
                s << "@" << c.member[k];
        }
        return s.str();
    };
    if (advice.sloFeasible) {
        const RackChainPlacementCandidate &d =
            advice.candidates[static_cast<std::size_t>(advice.desPick)];
        why << "DES-backed pick " << describe(advice.desPick)
            << (d.membersUsed > 1 ? " (rack-spanning)" : "")
            << " meets the SLO";
        const RackChainPlacementCandidate &h =
            advice.candidates[static_cast<std::size_t>(
                advice.heuristicPick)];
        if (!h.evaluated || !h.meetsSlo) {
            why << "; the heuristic baseline "
                << describe(advice.heuristicPick) << " does not";
        } else if (advice.desPick != advice.heuristicPick) {
            why << " at lower TCO than the heuristic baseline "
                << describe(advice.heuristicPick);
        } else {
            why << " (agrees with the heuristic baseline)";
        }
    } else {
        why << "no evaluated placement meets the SLO; lowest-p99 "
            << "fallback: " << describe(advice.desPick);
    }
    advice.rationale = why.str();
    return advice;
}

} // namespace snic::core
