/**
 * @file
 * Rack implementation: shared-timeline assembly, the aggregate
 * measurement window, and simulation-based fleet sizing.
 */

#include "core/rack.hh"

#include <algorithm>
#include <cmath>

#include "core/throughput_search.hh"
#include "hw/specs.hh"
#include "sim/logging.hh"

namespace snic::core {

Rack::Rack(const RackConfig &config)
    : _config(config)
{
    _ownedSim = std::make_unique<sim::Simulation>(config.seed);
    _sim = _ownedSim.get();
    assemble();
}

Rack::Rack(const RackConfig &config, sim::Simulation &shared)
    : _config(config)
{
    _sim = &shared;
    assemble();
}

void
Rack::assemble()
{
    const RackConfig &config = _config;
    if (config.servers == 0)
        sim::fatal("Rack: needs at least one server");

    // A rack-level chain is assembled member-stripped everywhere:
    // each member gets identical hardware and workload instances (so
    // any member could host any stage), and the *spanning* runtime —
    // which stage actually executes where — is overlaid on the
    // ingress member's chain below.
    ChainSpec stripped = config.chain;
    for (FunctionStageSpec &fs : stripped.stages) {
        if (fs.member >= config.servers) {
            sim::fatal("Rack: chain stage %s placed on member %u of a "
                       "%u-server rack",
                       fs.workloadId.c_str(), fs.member,
                       config.servers);
        }
        fs.member = 0;
    }

    _members.reserve(config.servers);
    for (unsigned i = 0; i < config.servers; ++i) {
        TestbedConfig tc;
        tc.workloadId = config.workloadId;
        tc.platform = config.platform;
        tc.chain = stripped;
        tc.seed = config.seed;
        tc.hostCoresOverride = config.hostCoresOverride;
        _members.push_back(std::make_unique<Testbed>(tc, *_sim));
    }
    _memberPower.reserve(config.servers);
    for (unsigned i = 0; i < config.servers; ++i)
        _memberPower.emplace_back(config.powerSpecs, _sim->now());
    _memberWakeDone.assign(config.servers, 0);

    const workloads::Spec &spec = _members.front()->workload().spec();
    if (spec.drive != workloads::Drive::Network) {
        sim::fatal("Rack: workload %s is not network-driven — rack "
                   "composition dispatches packets, not local jobs",
                   spec.id.c_str());
    }

    net::TorConfig tor;
    tor.policy = config.policy;
    tor.members = config.servers;
    tor.seed = config.seed;
    tor.flowCount = config.flowCount;
    tor.hotFlowFraction = config.hotFlowFraction;
    tor.forwardNs = hw::specs::torLatencyNs;
    tor.probes = config.dchoiceProbes;
    tor.probeNs = hw::specs::torProbeNs;
    _tor = std::make_unique<net::TorSwitch>(tor);
    // Queue-aware policies compare members by outstanding work in
    // ticks: the uplink serialization backlog (where incast piles
    // up) plus every request the member still holds — propagating on
    // the wire or inside the pipeline — priced at one mean request's
    // wire time each. Counting the on-the-wire packets matters: a
    // probe that only sees the pipeline lags dispatch by the link
    // latency, and during that window a least-queue policy herds
    // consecutive packets onto the same "idle" member. A waking
    // member's remaining boot time is outstanding work too: without
    // pricing it, the member advertises an empty queue the moment it
    // rejoins and a queue-aware policy herds traffic into its
    // admission stall. One pass per dispatch over the probed set,
    // with now() and the wake table read once.
    const double mean_bytes = spec.sizes.meanBytes();
    const sim::Tick mean_wire_ticks = sim::secToTicks(
        mean_bytes * 8.0 / (hw::specs::lineRateGbps * 1e9));
    _tor->setBatchLoadProbe([this, mean_wire_ticks](
                                const unsigned *members, unsigned n,
                                std::uint64_t *out) {
        const sim::Tick t = _sim->now();
        for (unsigned i = 0; i < n; ++i) {
            const unsigned m = members ? members[i] : i;
            Testbed &bed = *_members[m];
            const std::uint64_t held =
                bed.upLink().inFlight() + bed.pipeline().inFlight();
            std::uint64_t load =
                bed.upLink().backlog() + held * mean_wire_ticks;
            const sim::Tick wake_done = _memberWakeDone[m];
            if (wake_done > t)
                load += wake_done - t;
            out[i] = load;
        }
    });

    // Spanning-chain overlay: copy the ingress member's assembled
    // chain, pin each stage to its configured member's hardware, give
    // hop-entered stages their ToR path (the destination member's
    // ingress wire), and rebuild the ingress pipeline so the response
    // leaves on the *last* stage's member's down link.
    _chainMode = config.chain.usesMembers();
    _chainPinned.assign(config.servers, false);
    if (_chainMode) {
        _chainIngress = config.chain.stages.front().member;
        std::vector<ChainStageRuntime> rt =
            _members[_chainIngress]->chain();
        for (std::size_t k = 0; k < rt.size(); ++k) {
            const unsigned m = config.chain.stages[k].member;
            rt[k].member = m;
            rt[k].server = &_members[m]->server();
            _chainPinned[m] = true;
            if (k > 0 && m != rt[k - 1].member) {
                rt[k].ingressWire = &_members[m]->upLink();
                rt[k].tor = _tor.get();
            }
        }
        const unsigned last = config.chain.stages.back().member;
        _members[_chainIngress]->installRackChain(
            std::move(rt), _members[last]->downLink());
    }

    // The single aggregate client: every emitted packet takes one
    // dispatch decision, then the chosen member's own uplink (where
    // serialization backlog — incast — accumulates).
    _gen = std::make_unique<net::TrafficGen>(
        *_sim, "rack-client",
        net::PacketSink([this](const net::Packet &pkt) {
            dispatch(pkt);
        }),
        spec.sizes, protoFor(spec.stack));
}

Rack::~Rack() = default;

void
Rack::dispatch(const net::Packet &pkt)
{
    // A spanning chain has one entry point: the first stage's member.
    // The ToR still forwards (and counts) the packet, but no policy
    // decision — and no policy RNG draw — happens.
    const unsigned m = _chainMode
                           ? _tor->pickChainIngress(_chainIngress)
                           : _tor->pick(pkt);
    net::Packet p = pkt;
    p.extraNs += _tor->forwardNs();
    const sim::Tick wake_done = _memberWakeDone[m];
    if (wake_done > _sim->now()) {
        // Admission stall: the member is still powering up, so the
        // packet parks at its NIC and enters the uplink when the box
        // is live. Latency runs from createdAt, so the stall is
        // charged to this request — the SLO cost of the wake.
        _sim->at(wake_done, [this, m, p] {
            _members[m]->upLink().send(p);
        }, "rack-wake-stall");
        return;
    }
    _members[m]->upLink().send(p);
}

void
Rack::sleepMember(unsigned m)
{
    // beginDrain is fatal unless the member is Active; setLive is
    // fatal when it would empty the dispatch set — both are
    // autoscaler bugs, not runtime conditions.
    if (m < _chainPinned.size() && _chainPinned[m]) {
        sim::fatal("Rack: member %u hosts a chain stage — spanning-"
                   "chain members cannot be slept", m);
    }
    _memberPower.at(m).beginDrain(_sim->now());
    _tor->setLive(m, false);
    pollDrain(m);
}

void
Rack::pollDrain(unsigned m)
{
    power::PowerStateMachine &psm = _memberPower[m];
    if (psm.state() != power::PowerState::Draining)
        return;  // a scale-up canceled the drain
    if (memberQuiescent(m)) {
        psm.completeDrain(_sim->now());
        _members[m]->server().setPowerGated(true);
        return;
    }
    _sim->after(_config.drainPollTicks, [this, m] { pollDrain(m); },
                "rack-drain-poll");
}

void
Rack::wakeMember(unsigned m)
{
    power::PowerStateMachine &psm = _memberPower.at(m);
    switch (psm.state()) {
      case power::PowerState::Active:
      case power::PowerState::Waking:
        return;
      case power::PowerState::Draining:
        // Caught before it slept: no wake latency, rejoin directly.
        psm.cancelDrain(_sim->now());
        _tor->setLive(m, true);
        return;
      case power::PowerState::Asleep: {
        _members[m]->server().setPowerGated(false);
        const sim::Tick done = psm.beginWake(_sim->now());
        _memberWakeDone[m] = done;
        // Dispatchable right away — arrivals stall until wake-done.
        _tor->setLive(m, true);
        _sim->at(done, [this, m] {
            if (_memberPower[m].state() == power::PowerState::Waking)
                _memberPower[m].completeWake(_sim->now());
        }, "rack-wake");
        return;
      }
    }
}

bool
Rack::memberQuiescent(unsigned m) const
{
    Testbed &bed = *_members.at(m);
    return bed.upLink().inFlight() == 0 &&
           bed.pipeline().inFlight() == 0 &&
           bed.downLink().inFlight() == 0;
}

void
Rack::beginTrace(const std::vector<double> &rates_gbps, sim::Tick bin)
{
    for (auto &m : _members)
        m->openWindow();
    _tor->resetStats();
    _gen->startSchedule(rates_gbps, bin);
}

void
Rack::stopTrace()
{
    _gen->stop();
}

void
Rack::beginBin()
{
    // Arm without reopening: no epoch advance, no datapath reset —
    // requests straddling the bin boundary stay in flight and record
    // in the bin they complete in.
    for (auto &m : _members)
        m->armWindow();
}

RackBinStats
Rack::endBin(sim::Tick bin_ticks)
{
    RackBinStats bs;
    bs.memberEnergy.reserve(_members.size());
    bs.memberCompleted.reserve(_members.size());
    // Sum the bytes, then divide once: summing per-member rates
    // rounds differently, and this rate feeds the autoscaler.
    double bytes_served = 0.0;
    for (auto &m : _members) {
        bs.memberEnergy.push_back(m->closeWindow());
        const WindowCounters &w = m->windowCounters();
        bs.completed += w.completed;
        bs.generated += w.generated;
        bytes_served += w.bytesServed;
        bs.latency.merge(w.latency);
        bs.memberCompleted.push_back(w.completed);
    }
    bs.achievedGbps =
        bytes_served * 8.0 / sim::ticksToSec(bin_ticks) / 1e9;
    return bs;
}

double
Rack::meanRequestBytes() const
{
    return _members.front()->workload().spec().sizes.meanBytes();
}

double
Rack::estimateCapacityRps(int samples)
{
    // A spanning chain is ONE replica: all traffic enters at the
    // ingress member, whose (member-aware) estimator already prices
    // every stage on its own member's hardware and bounds hops by
    // each destination wire. Summing the members would double-count.
    if (_chainMode)
        return _members[_chainIngress]->estimateCapacityRps(samples);
    double sum = 0.0;
    for (auto &m : _members)
        sum += m->estimateCapacityRps(samples);
    return sum;
}

RackMeasurement
Rack::measure(double aggregate_gbps, sim::Tick warmup,
              sim::Tick window)
{
    // Testbed::measure's window steps, walked on every member, so a
    // 1-server PassThrough rack replays the identical event sequence.
    for (auto &m : _members)
        m->openWindow();
    _tor->resetStats();

    const sim::Tick window_start = _sim->now() + warmup;
    const sim::Tick window_end = window_start + window;
    _gen->startAtRate(aggregate_gbps, window_end);
    _sim->runUntil(window_start);
    for (auto &m : _members)
        m->armWindow();
    _sim->runUntil(window_end);
    _gen->stop();

    RackMeasurement rm;
    rm.perServer.reserve(_members.size());
    const double per_server_offered =
        aggregate_gbps / static_cast<double>(_members.size());
    for (auto &m : _members) {
        const power::EnergyReading energy = m->closeWindow();
        rm.perServer.push_back(
            m->collect(per_server_offered, window, energy));
    }
    rm.dispatched = _tor->dispatched();
    rm.imbalance = _tor->imbalance();

    // Merge the member windows into the rack-aggregate view.
    Measurement &agg = rm.aggregate;
    agg.offeredGbps = aggregate_gbps;
    const std::size_t n = rm.perServer.size();
    for (const Measurement &mi : rm.perServer) {
        agg.achievedGbps += mi.achievedGbps;
        agg.goodputGbps += mi.goodputGbps;
        agg.achievedRps += mi.achievedRps;
        agg.completed += mi.completed;
        agg.generated += mi.generated;
        agg.latency.merge(mi.latency);
        agg.energy.avgServerWatts += mi.energy.avgServerWatts;
        agg.energy.avgSnicWatts += mi.energy.avgSnicWatts;
        agg.energy.serverJoules += mi.energy.serverJoules;
        agg.energy.nicGbps += mi.energy.nicGbps;
        agg.energy.hostUtil += mi.energy.hostUtil / n;
        agg.energy.snicCpuUtil += mi.energy.snicCpuUtil / n;
        agg.energy.accelUtil += mi.energy.accelUtil / n;
    }
    agg.energy.seconds = rm.perServer.front().energy.seconds;
    return rm;
}

FleetSizing
sizeFleetBySimulation(const RackConfig &base, double demand_gbps,
                      double p99_budget_us, double per_server_gbps,
                      const ExperimentOptions &opts)
{
    FleetSizing out;
    if (demand_gbps <= 0.0 || per_server_gbps <= 0.0)
        return out;
    out.arithmeticServers = static_cast<unsigned>(
        std::ceil(demand_gbps / per_server_gbps));

    const unsigned lo =
        out.arithmeticServers > 1 ? out.arithmeticServers - 1 : 1;
    const unsigned hi = out.arithmeticServers + 8;
    for (unsigned m = lo; m <= hi; ++m) {
        // Skip sizes whose wires cannot physically carry the demand.
        if (demand_gbps > m * hw::specs::lineRateGbps * 0.98)
            continue;
        RackConfig cfg = base;
        cfg.servers = m;
        Rack rack(cfg);
        const double rps = net::gbpsToBytesPerSec(demand_gbps) /
                           rack.meanRequestBytes();
        const sim::Tick window = windowFor(rps, opts);
        const RackMeasurement rm =
            rack.measure(demand_gbps, opts.warmup, window);
        out.simulatedServers = m;
        out.achievedGbps = rm.aggregate.achievedGbps;
        out.p99Us = rm.aggregate.p99Us();
        out.imbalance = rm.imbalance;
        if (out.achievedGbps >= 0.97 * demand_gbps &&
            out.p99Us <= p99_budget_us) {
            out.met = true;
            return out;
        }
    }
    // Nothing in range met the SLO: report the last attempt but keep
    // simulatedServers meaningful only alongside met == false.
    out.met = false;
    return out;
}

RackRunResult
runRackExperiment(const RackConfig &config,
                  const ExperimentOptions &opts)
{
    RackRunResult r;
    r.config = config;

    Rack rack(config);
    if (opts.traceSlowest > 0) {
        for (unsigned i = 0; i < rack.servers(); ++i)
            rack.server(i).enableTracing(opts.traceSlowest);
    }

    const Capacity cap = findCapacity(rack, opts);
    r.maxGbps = cap.gbps;
    r.maxRps = cap.rps;
    r.searchAttempts = cap.attempts;
    r.saturated = cap.saturated;

    const double spec_lf =
        rack.server(0).workload().spec().operatingLoadFactor;
    const double rate =
        cap.requestGbps * (spec_lf > 0.0 ? spec_lf : opts.loadFactor);
    const sim::Tick window = windowFor(cap.rps, opts);
    RackMeasurement rm = rack.measure(rate, opts.warmup, window);
    r.p99Us = rm.aggregate.p99Us();
    r.p50Us = rm.aggregate.p50Us();
    r.meanUs = rm.aggregate.meanUs();
    r.rackWatts = rm.aggregate.energy.avgServerWatts;
    r.imbalance = rm.imbalance;
    r.loadPoint = std::move(rm);
    return r;
}

} // namespace snic::core
