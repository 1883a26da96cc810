/**
 * @file
 * E9 — service-chain placement: sweep chain x placement x load for a
 * composable function chain, then pit the Meili-style
 * location/bandwidth/resource key heuristic against the DES-backed
 * chain-placement advisor under a tail-latency SLO.
 *
 * The headline scenario is a decompress -> REM scan -> KVS store
 * chain. The key heuristic is latency-blind: its resource term
 * prefers the cheap fixed-function engines, but the REM engine path
 * carries a ~25 us pipeline floor (Fig. 5), so under a tight p99 SLO
 * the heuristic's pick misses while a host placement — expensive by
 * every key — meets it. The DES evaluation sees the floor and picks
 * accordingly. When the SLO is loose both picks qualify, and the
 * DES pick, host+host+host, still wins on TCO: its ~98 Gbps servers
 * halve the fleet the engines' ~54 Gbps cap would need.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/advisor.hh"
#include "core/chain.hh"
#include "core/throughput_search.hh"
#include "sim/logging.hh"

using namespace snic;
using namespace snic::core;

namespace {

std::string
placementLabel(const std::vector<hw::Platform> &where)
{
    std::string s;
    for (std::size_t k = 0; k < where.size(); ++k) {
        if (k)
            s += "+";
        switch (where[k]) {
          case hw::Platform::HostCpu:
            s += "host";
            break;
          case hw::Platform::SnicCpu:
            s += "snic";
            break;
          case hw::Platform::SnicAccel:
            s += "engine";
            break;
        }
    }
    return s;
}

unsigned
crossings(const std::vector<hw::Platform> &where)
{
    std::vector<hw::Placement> p;
    for (hw::Platform w : where)
        p.push_back({w, hw::AccelKind::Rem});
    return pcieCrossings(p);
}

/** Sweep one placement of one chain across load factors. */
void
sweepPlacement(const std::vector<std::string> &functions,
               const std::vector<hw::Platform> &where)
{
    ChainSpec chain;
    for (std::size_t k = 0; k < functions.size(); ++k)
        chain.then(functions[k], where[k]);

    TestbedConfig cfg;
    cfg.chain = chain;
    cfg.seed = 1;
    Testbed bed(cfg);

    ExperimentOptions opts;
    opts.targetSamples = 4000;
    opts.warmup = sim::msToTicks(1.0);
    opts.minWindow = sim::msToTicks(2.0);
    const Capacity cap = findCapacity(bed, opts);

    std::printf("%-22s %5u %9.2f", placementLabel(where).c_str(),
                crossings(where), cap.requestGbps);
    for (const double load : {0.5, 0.7, 0.9}) {
        const double rate = cap.requestGbps * load;
        const Measurement m =
            bed.measure(rate, opts.warmup,
                        windowFor(cap.rps * load, opts));
        std::printf(" %9.1f", m.p99Us());
    }
    std::printf("\n");
}

void
sweepChain(const char *title, const std::vector<std::string> &functions,
           const std::vector<std::vector<hw::Platform>> &placements)
{
    std::printf("\n== chain: %s ==\n", title);
    std::printf("%-22s %5s %9s %9s %9s %9s\n", "placement", "xPCIe",
                "cap Gbps", "p99@50%", "p99@70%", "p99@90%");
    for (const auto &where : placements)
        sweepPlacement(functions, where);
}

void
advisorShowdown(const std::vector<std::string> &functions,
                const SloConstraint &slo)
{
    std::printf("\n== advisor: p99 <= %.0f us, >= %.1f Gbps ==\n",
                slo.p99UsMax, slo.minGbps);
    ChainAdvisorOptions opts;
    opts.loadFactor = 0.7;
    opts.demandGbps = 40.0;
    const ChainAdvice advice = adviseChainPlacement(functions, slo, opts);

    std::printf("%-22s %8s %9s %9s %9s %11s %6s\n", "candidate", "key",
                "cap Gbps", "p99 us", "watts", "5yr TCO $", "SLO");
    for (const auto &c : advice.candidates) {
        if (!c.evaluated) {
            std::printf("%-22s %8.3f %9s (not DES-evaluated)\n",
                        placementLabel(c.where).c_str(),
                        c.key.combined, "-");
            continue;
        }
        std::printf("%-22s %8.3f %9.2f %9.1f %9.1f %11.0f %6s\n",
                    placementLabel(c.where).c_str(), c.key.combined,
                    c.capacityGbps, c.p99Us, c.serverWatts,
                    c.tco5yrUsd, c.meetsSlo ? "meets" : "MISS");
    }
    const auto &heur =
        advice.candidates[static_cast<std::size_t>(advice.heuristicPick)];
    std::printf("heuristic (Meili key) pick: %s -> %s\n",
                placementLabel(heur.where).c_str(),
                heur.evaluated ? (heur.meetsSlo ? "meets SLO"
                                                : "MISSES SLO")
                               : "unevaluated");
    if (advice.desPick >= 0) {
        const auto &des =
            advice.candidates[static_cast<std::size_t>(advice.desPick)];
        std::printf("DES-backed pick:            %s -> %s\n",
                    placementLabel(des.where).c_str(),
                    des.meetsSlo ? "meets SLO" : "misses SLO");
    }
    std::printf("rationale: %s\n", advice.rationale.c_str());
}

std::string
rackLabel(const std::vector<hw::Platform> &where,
          const std::vector<unsigned> &member)
{
    std::string s;
    for (std::size_t k = 0; k < where.size(); ++k) {
        if (k)
            s += "+";
        switch (where[k]) {
          case hw::Platform::HostCpu:
            s += "host";
            break;
          case hw::Platform::SnicCpu:
            s += "snic";
            break;
          case hw::Platform::SnicAccel:
            s += "engine";
            break;
        }
        s += "@";
        s += std::to_string(member[k]);
    }
    return s;
}

void
rackShowdown(const char *title, const std::vector<std::string> &functions,
             const SloConstraint &slo, const RackChainAdvisorOptions &opts)
{
    std::printf("\n== rack advisor: %s ==\n", title);
    std::printf("   SLO: p99 <= %.0f us, unit >= %.1f Gbps; demand %.0f "
                "Gbps; <= %u members\n",
                slo.p99UsMax, slo.minGbps, opts.demandGbps,
                opts.maxMembers);
    const RackChainAdvice advice =
        adviseRackChainPlacement(functions, slo, opts);

    std::printf("   %zu placements enumerated, %zu DES-eligible after "
                "key-rank pruning, DES budget %d\n",
                advice.enumerated, advice.desEligible, opts.desBudget);
    std::printf("%-28s %4s %8s %9s %9s %5s %11s %6s\n", "candidate",
                "mbrs", "key", "cap Gbps", "p99 us", "srv", "5yr TCO $",
                "SLO");
    for (const auto &c : advice.candidates) {
        if (!c.evaluated) {
            std::printf("%-28s %4u %8.3f (not DES-evaluated)\n",
                        rackLabel(c.where, c.member).c_str(),
                        c.membersUsed, c.key.combined);
            continue;
        }
        std::printf("%-28s %4u %8.3f %9.2f %9.1f %5u %11.0f %6s\n",
                    rackLabel(c.where, c.member).c_str(), c.membersUsed,
                    c.key.combined, c.capacityGbps, c.p99Us,
                    c.serversForDemand, c.tco5yrUsd,
                    c.meetsSlo ? "meets" : "MISS");
    }
    if (advice.heuristicPick >= 0) {
        const auto &heur = advice.candidates[static_cast<std::size_t>(
            advice.heuristicPick)];
        std::printf("heuristic (key) pick: %s\n",
                    rackLabel(heur.where, heur.member).c_str());
    }
    if (advice.desPick >= 0) {
        const auto &des =
            advice.candidates[static_cast<std::size_t>(advice.desPick)];
        std::printf("DES-backed pick:      %s (%s, %u members)\n",
                    rackLabel(des.where, des.member).c_str(),
                    des.meetsSlo ? "meets SLO" : "misses SLO",
                    des.membersUsed);
        // Contrast against the best DES-evaluated single-member unit.
        const RackChainPlacementCandidate *best_single = nullptr;
        for (const auto &c : advice.candidates) {
            if (!c.evaluated || c.membersUsed != 1)
                continue;
            if (!best_single || (c.meetsSlo && !best_single->meetsSlo) ||
                (c.meetsSlo == best_single->meetsSlo &&
                 c.tco5yrUsd < best_single->tco5yrUsd))
                best_single = &c;
        }
        if (best_single && best_single != &des) {
            std::printf(
                "vs best single-member: %s (%s, unit %.2f Gbps, "
                "TCO $%.0f)\n",
                rackLabel(best_single->where, best_single->member).c_str(),
                best_single->meetsSlo ? "meets SLO" : "misses SLO",
                best_single->capacityGbps, best_single->tco5yrUsd);
        }
    }
    std::printf("rationale: %s\n", advice.rationale.c_str());
}

/**
 * --rack mode: rack-level placement search, where the advisor may
 * spread chain stages across rack members and pays for every
 * cross-member hop through the ToR.
 *
 * The headline chain is a double REM scan (two rulesets over the
 * same stream). On one member both scans share the one RXP engine,
 * halving unit throughput; shipping the second scan to the
 * neighbor's idle engine restores it, at the price of a ToR hop
 * (forwarding + wire serialization + queueing) on every record.
 *
 * Scenario 1 (spanning wins): a per-unit throughput floor no single
 * member can sustain, with a loose p99 budget. Only the spanning
 * placement meets the SLO — and because its two members run their
 * scans on engines (hosts nearly idle), its 5-yr TCO undercuts
 * every single-member candidate too.
 *
 * Scenario 2 (spanning correctly rejected): same chain, tight p99
 * budget. The hop's ~4 us of ToR forwarding plus wire queueing
 * pushes the spanning placement past the budget; the DES sees what
 * the latency-blind key cannot and keeps the chain on one member.
 *
 * Scenario 3 (fat-payload hop priced out at the key level): a
 * decompress stage inflates each record to 64 KiB before a REM
 * scan; candidates that ship the decompressed stream across the
 * rack pay 5.2 us of wire serialization per record in the key's
 * bandwidth term, so they rank below the single-member splits
 * before any DES budget is spent.
 */
void
rackMode(bool smoke)
{
    RackChainAdvisorOptions opts;
    opts.loadFactor = 0.7;
    opts.maxMembers = 2;
    opts.desBudget = smoke ? 4 : 8;
    opts.targetSamples = smoke ? 800 : 4000;

    const std::vector<std::string> scan_pair{"rem_img", "rem_img"};
    RackChainAdvisorOptions pair_opts = opts;
    pair_opts.demandGbps = 26.0;
    rackShowdown("double REM scan, per-unit floor, loose p99",
                 scan_pair, SloConstraint{150.0, 25.0}, pair_opts);
    rackShowdown("double REM scan, tight p99 (hop over budget)",
                 scan_pair, SloConstraint{49.0, 12.0}, pair_opts);

    const std::vector<std::string> inflate_scan{
        "micro_udp_1024", "comp_app_dec", "rem_exe"};
    RackChainAdvisorOptions local_opts = opts;
    local_opts.demandGbps = 10.0;
    rackShowdown("decompress-inflated scan (64 KiB hop payload)",
                 inflate_scan, SloConstraint{2000.0, 0.5}, local_opts);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);

    bool rack = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--rack") == 0)
            rack = true;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else {
            std::fprintf(stderr,
                         "usage: %s [--rack [--smoke]]\n", argv[0]);
            return 2;
        }
    }
    if (rack) {
        rackMode(smoke);
        return 0;
    }

    // Decompress -> REM scan -> KVS store: the offload chain where
    // every function has somewhere else it could run.
    const std::vector<std::string> dec_scan_store{
        "comp_app_dec", "rem_exe", "redis_a"};
    sweepChain("decompress -> rem -> kvs (3 functions)",
               dec_scan_store,
               {
                   {hw::Platform::HostCpu, hw::Platform::HostCpu,
                    hw::Platform::HostCpu},
                   {hw::Platform::SnicAccel, hw::Platform::SnicAccel,
                    hw::Platform::SnicCpu},
                   {hw::Platform::SnicAccel, hw::Platform::SnicAccel,
                    hw::Platform::HostCpu},
                   {hw::Platform::HostCpu, hw::Platform::SnicAccel,
                    hw::Platform::HostCpu},
                   {hw::Platform::SnicCpu, hw::Platform::SnicAccel,
                    hw::Platform::SnicCpu},
                   {hw::Platform::SnicAccel, hw::Platform::HostCpu,
                    hw::Platform::HostCpu},
               });

    // Crypto -> NAT egress: a 2-function chain with a PKA engine.
    const std::vector<std::string> crypto_nat{"crypto_aes", "nat_10k"};
    sweepChain("crypto -> nat (2 functions)", crypto_nat,
               {
                   {hw::Platform::HostCpu, hw::Platform::HostCpu},
                   {hw::Platform::SnicAccel, hw::Platform::SnicCpu},
                   {hw::Platform::SnicAccel, hw::Platform::HostCpu},
                   {hw::Platform::SnicCpu, hw::Platform::SnicCpu},
               });

    // The acceptance scenario: a tight tail SLO the engine path's
    // latency floor cannot clear.
    advisorShowdown(dec_scan_store, SloConstraint{60.0, 1.0});
    // And a loose one: every candidate meets it, and host+host+host
    // still wins on TCO.
    advisorShowdown(dec_scan_store, SloConstraint{2000.0, 1.0});
    return 0;
}
