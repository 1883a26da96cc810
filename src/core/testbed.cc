/**
 * @file
 * Testbed implementation: hardware assembly, pipeline wiring, and
 * the measurement windows.
 */

#include "core/testbed.hh"

#include <algorithm>

#include "hw/specs.hh"
#include "sim/logging.hh"
#include "stack/xdp_stack.hh"

namespace snic::core {

net::Proto
protoFor(stack::StackKind kind)
{
    switch (kind) {
      case stack::StackKind::Udp:
        return net::Proto::Udp;
      case stack::StackKind::Tcp:
        return net::Proto::Tcp;
      case stack::StackKind::Dpdk:
        return net::Proto::Dpdk;
      case stack::StackKind::Rdma:
        return net::Proto::Rdma;
      case stack::StackKind::Xdp:
        // AF_XDP frames carry UDP datagrams: the tier changes where
        // the packet is processed, not its wire format.
        return net::Proto::Udp;
    }
    // Unreachable with -Werror=switch; loud (not a silent UDP
    // fallback) if a cast ever smuggles in a bad enumerator.
    sim::panic("protoFor: bad stack kind");
}

Testbed::Testbed(const TestbedConfig &config)
    : _config(config)
{
    _ownedSim = std::make_unique<sim::Simulation>(config.seed);
    _sim = _ownedSim.get();
    assemble();
}

Testbed::Testbed(const TestbedConfig &config, sim::Simulation &shared)
    : _config(config)
{
    _sim = &shared;
    assemble();
}

void
Testbed::assemble()
{
    // Resolve the chain: an empty ChainSpec means the classic
    // single-function testbed described by workloadId/platform.
    ChainSpec chain_spec = _config.chain;
    if (chain_spec.empty()) {
        if (_config.workloadId.empty()) {
            sim::fatal("Testbed: empty chain — no chain stages and "
                       "no workloadId");
        }
        chain_spec =
            ChainSpec::single(_config.workloadId, _config.platform);
    }

    // Build and validate every chain function. makeWorkload is fatal
    // on unknown ids; supports() rejects placements Table 3 doesn't
    // list — including engine placement for a function with no
    // engine model.
    _chainWorkloads.clear();
    for (const FunctionStageSpec &fs : chain_spec.stages) {
        if (fs.workloadId.empty())
            sim::fatal("Testbed: chain stage with empty workload id");
        if (fs.member != 0) {
            // Cross-member placement needs a ToR path and a second
            // server — only the Rack assembler can provide them.
            sim::fatal("Testbed: chain stage %s placed on rack "
                       "member %u — cross-member chains must be "
                       "assembled by a Rack",
                       fs.workloadId.c_str(), fs.member);
        }
        auto wl = workloads::makeWorkload(fs.workloadId);
        if (!wl->supports(fs.where)) {
            sim::fatal(
                "Testbed: workload %s does not run on %s (Table 3)",
                fs.workloadId.c_str(), hw::platformName(fs.where));
        }
        if (chain_spec.size() > 1 && wl->spec().dataPlaneOffload) {
            sim::fatal("Testbed: data-plane-offload function %s "
                       "cannot be chained (it bypasses the CPUs)",
                       fs.workloadId.c_str());
        }
        _chainWorkloads.push_back(std::move(wl));
    }
    _workload = _chainWorkloads.front().get();

    // Normalize the legacy fields to the chain's first function so
    // every platform()/workloadId consumer sees the chain front.
    _config.workloadId = chain_spec.stages.front().workloadId;
    _config.platform = chain_spec.stages.front().where;

    // Assemble the runtime chain: resolved placements (engine kind
    // from the function's Spec::accel) and unique instance names —
    // repeated functions get distinct "#k" suffixes so StageStats /
    // attributeTail / correlateRingFull buckets never merge.
    _chain.clear();
    for (std::size_t k = 0; k < chain_spec.size(); ++k) {
        ChainStageRuntime rt;
        rt.workload = _chainWorkloads[k].get();
        rt.placement.kind = chain_spec.stages[k].where;
        rt.placement.engine = _chainWorkloads[k]->spec().accel;
        rt.name = chain_spec.stages[k].workloadId + "#" +
                  std::to_string(k);
        _chain.push_back(std::move(rt));
    }

    const workloads::Spec &spec = _workload->spec();

    unsigned host_cores = 0, snic_cores = 0;
    for (const auto &wl : _chainWorkloads) {
        host_cores = std::max(host_cores, wl->spec().hostCores);
        snic_cores = std::max(snic_cores, wl->spec().snicCores);
    }
    if (_config.hostCoresOverride)
        host_cores = _config.hostCoresOverride;
    _server = std::make_unique<hw::ServerModel>(*_sim, host_cores,
                                                snic_cores);

    // Engine queue discipline: each function's hardware batching
    // defaults unless this run forces a policy. ForceImmediate keeps
    // the pre-installed Immediate discipline (the identity datapath).
    // A ring-depth override bounds the engine's descriptor ring; a
    // Coalescing{1, 0} discipline is bitwise the Immediate path, so
    // bounding the ring of a non-batching engine costs nothing else.
    // When two chain functions reference the same engine, the first
    // one's configuration wins.
    bool engine_configured[3] = {false, false, false};
    for (const auto &wl : _chainWorkloads) {
        const workloads::Spec &s = wl->spec();
        bool &configured = engine_configured[static_cast<int>(s.accel)];
        if (configured)
            continue;
        configured = true;
        switch (_config.accelQueueing) {
          case AccelQueueing::WorkloadDefault: {
            hw::BatchConfig cfg = s.accelBatch;
            if (_config.accelRingDepth)
                cfg.queueDepth = _config.accelRingDepth;
            if (cfg.enabled() || cfg.bounded()) {
                _server->accel(s.accel).setDiscipline(
                    hw::makeCoalescing(cfg));
            }
            break;
          }
          case AccelQueueing::ForceImmediate:
            break;
          case AccelQueueing::ForceCoalescing: {
            hw::BatchConfig cfg = _config.accelBatchOverride;
            if (_config.accelRingDepth)
                cfg.queueDepth = _config.accelRingDepth;
            _server->accel(s.accel).setDiscipline(
                hw::makeCoalescing(cfg));
            break;
          }
        }
    }

    // The platforms the chain touches, chain order, deduplicated —
    // the window reset/drain set. Engines follow each function's
    // Spec::accel (like the seed, even for CPU placements: draining
    // an idle engine is free).
    _cpus.clear();
    _engines.clear();
    _accelStageName = _chain.size() == 1 ? "accelerator" : "";
    for (const ChainStageRuntime &st : _chain) {
        hw::ExecutionPlatform *cpu =
            &_server->cpuFor(st.placement.kind);
        if (std::find(_cpus.begin(), _cpus.end(), cpu) == _cpus.end())
            _cpus.push_back(cpu);
        hw::ExecutionPlatform *eng =
            &_server->accel(st.workload->spec().accel);
        if (std::find(_engines.begin(), _engines.end(), eng) ==
            _engines.end()) {
            _engines.push_back(eng);
        }
        if (_accelStageName.empty() &&
            st.placement.kind == hw::Platform::SnicAccel) {
            _accelStageName = st.name + ".engine";
        }
    }
    // The XDP program runs on the NIC-side cores for every packet,
    // whatever the serving platform — include them in the window
    // drain set so straddling program completions are swallowed.
    if (spec.stack == stack::StackKind::Xdp) {
        hw::ExecutionPlatform *nic = &_server->snicCpu();
        if (std::find(_cpus.begin(), _cpus.end(), nic) == _cpus.end())
            _cpus.push_back(nic);
    }

    _power = std::make_unique<power::ServerPowerModel>(*_server);
    _stack = stack::makeStack(spec.stack, spec.rdmaOneSided);

    // DPDK PMD threads busy-poll the NIC.
    if (_stack->busyPolling() && !spec.dataPlaneOffload)
        servingCpu().setBusyPolling(true);

    _upLink = std::make_unique<net::Link>(
        *_sim, "uplink", hw::specs::lineRateGbps, sim::usToTicks(1.0));
    _downLink = std::make_unique<net::Link>(
        *_sim, "downlink", hw::specs::lineRateGbps,
        sim::usToTicks(1.0));

    // Assemble the stage pipeline over the hardware.
    const PipelineContext ctx{*_sim,     *_server,
                              *_workload, *_stack,
                              servingCpu(), _config.platform,
                              /*epochStart=*/0,
                              /*tracer=*/nullptr,
                              /*liveRequests=*/0, &_chain,
                              _config.xdpVerdict};
    // The conversion to the privately-inherited EgressSink must
    // happen here, inside the class's own scope.
    EgressSink &sink_self = *this;
    _pipeline = std::make_unique<Pipeline>(ctx, *_downLink, sink_self);

    // Wire: uplink -> eSwitch -> pipeline front.
    _server->eswitch().setClassifier(
        [platform = _config.platform](const net::Packet &) {
            return platform == hw::Platform::HostCpu
                       ? hw::SteerTarget::HostCpu
                       : hw::SteerTarget::SnicCpu;
        });
    auto sink = [this](const net::Packet &pkt) {
        _pipeline->inject(pkt);
    };
    _server->eswitch().connectHostCpu(sink);
    _server->eswitch().connectSnicCpu(sink);
    _upLink->connect([this](const net::Packet &pkt) {
        _server->eswitch().ingress(pkt);
    });

    // Response delivery closes the latency measurement.
    _downLink->connect([this](const net::Packet &pkt) {
        if (pkt.createdAt < _pipeline->epoch())
            return;
        const sim::Tick rtt =
            _sim->now() - pkt.createdAt +
            sim::nsToTicks(pkt.extraNs);
        if (_window.recording) {
            if (_config.goodFilter && !_config.goodFilter(pkt)) {
                // A hostile-flood completion: served, but not part
                // of the legitimate-traffic SLO.
                ++_window.floodCompleted;
            } else {
                _window.latency.record(rtt);
                ++_window.completed;
            }
        }
        if (_closedLoopActive) {
            --_inFlight;
            issueClosedLoopJob();
        }
    });

    if (spec.drive == workloads::Drive::Network) {
        _gen = std::make_unique<net::TrafficGen>(
            *_sim, "client", *_upLink, spec.sizes,
            protoFor(spec.stack));
    }

    // Set up the chain's datasets front to back on the one RNG
    // stream (a single-function chain consumes exactly what the
    // seed's lone setup call did).
    for (auto &wl : _chainWorkloads)
        wl->setup(_sim->rng());
}

Testbed::~Testbed() = default;

hw::ExecutionPlatform &
Testbed::servingCpu()
{
    return _server->cpuFor(_config.platform);
}

hw::ExecutionPlatform &
Testbed::accelEngine()
{
    return *_engines.front();
}

void
Testbed::installRackChain(std::vector<ChainStageRuntime> chain,
                          net::Link &egress_down)
{
    _chain = std::move(chain);
    // Rebuild the pipeline over the spanning chain. The context is
    // assembled exactly like assemble()'s: this member stays the
    // ingress (its uplink, eSwitch and stack front the chain), while
    // stages pinned to other members resolve their own hardware via
    // ChainStageRuntime::server and the response serializes on the
    // last member's down link.
    const PipelineContext ctx{*_sim,     *_server,
                              *_workload, *_stack,
                              servingCpu(), _config.platform,
                              /*epochStart=*/0,
                              /*tracer=*/nullptr,
                              /*liveRequests=*/0, &_chain,
                              _config.xdpVerdict};
    EgressSink &sink_self = *this;
    _pipeline = std::make_unique<Pipeline>(ctx, egress_down, sink_self);
    if (_tracer)
        _pipeline->setTracer(_tracer.get());
}

void
Testbed::enableTracing(std::size_t keepSlowest)
{
    _tracer = std::make_unique<TraceRecorder>(keepSlowest);
    _pipeline->setTracer(_tracer.get());
}

void
Testbed::openWindow()
{
    _pipeline->setEpoch(_sim->now());
    _pipeline->resetStats();
    if (_tracer)
        _tracer->reset();
    _window.recording = false;
    _meter.reset();
    // Drain queues and clear link/PCIe backlog left by the previous
    // window.
    for (hw::ExecutionPlatform *cpu : _cpus)
        cpu->drainAndReset();
    for (hw::ExecutionPlatform *engine : _engines)
        engine->drainAndReset();
    _server->pcie().reset();
    _upLink->reset();
    _downLink->reset();
}

void
Testbed::armWindow()
{
    _window.latency.reset();
    _window.completed = _window.floodCompleted = _window.generated = 0;
    _window.bytesServed = _window.goodputBytes = _window.wireBytes = 0.0;
    if (_tracer) {
        // Forget warmup-period timelines: kept traces describe the
        // measured window, like the latency histogram.
        _tracer->reset();
    }
    // Same boundary for the engine observers, so BatchingSnapshot
    // and RingSnapshot count the window's traffic only — not the
    // warmup's (there is no drain between warmup and window; a drain
    // here would perturb the schedule).
    for (hw::ExecutionPlatform *engine : _engines) {
        engine->resetRingStats();
        engine->discipline().resetBatchingStats();
    }
    _window.recording = true;
    _meter.emplace(*_server, *_power);
    _meter->begin();
}

power::EnergyReading
Testbed::closeWindow()
{
    if (!_meter)
        sim::fatal("Testbed: closing a measurement window that was "
                   "never armed");
    _window.recording = false;
    const power::EnergyReading energy =
        _meter->end(_window.wireBytes / 2.0);
    _meter.reset();
    return energy;
}

void
Testbed::onStale()
{
    if (_closedLoopActive && _inFlight > 0)
        --_inFlight;
}

void
Testbed::onServed(const net::Packet &pkt,
                  const workloads::RequestPlan &plan)
{
    if (!_window.recording)
        return;
    // Flood traffic still burns wire bytes (the energy model's
    // per-byte NIC cost is real), but contributes nothing to the
    // legitimate-traffic goodput the SLO is judged on.
    _window.wireBytes += static_cast<double>(pkt.sizeBytes) +
                         plan.responseBytes;
    ++_window.generated;
    if (_config.goodFilter && !_config.goodFilter(pkt))
        return;
    _window.bytesServed += pkt.sizeBytes;
    _window.goodputBytes += std::max<double>(pkt.sizeBytes,
                                             plan.responseBytes);
    if (_servedSeries)
        _servedSeries->add(_sim->now(), pkt.sizeBytes);
}

void
Testbed::onTerminal(sim::Tick latency)
{
    if (_window.recording) {
        _window.latency.record(latency);
        ++_window.completed;
    }
    if (_closedLoopActive) {
        --_inFlight;
        issueClosedLoopJob();
    }
}

void
Testbed::issueClosedLoopJob()
{
    if (!_closedLoopActive || _inFlight >= _targetDepth)
        return;
    ++_inFlight;
    net::Packet job;
    job.id = ++_jobSeq;
    job.sizeBytes = _workload->spec().sizes.sample(_sim->rng());
    job.createdAt = _sim->now();
    job.flowHash = _sim->rng().next();
    _pipeline->inject(job);
}

Measurement
Testbed::collect(double offered_gbps, sim::Tick window,
                 const power::EnergyReading &energy)
{
    Measurement m;
    m.offeredGbps = offered_gbps;
    m.latency = _window.latency;
    m.completed = _window.completed;
    m.floodCompleted = _window.floodCompleted;
    m.generated = _window.generated;
    const double secs = sim::ticksToSec(window);
    m.achievedGbps = _window.bytesServed * 8.0 / secs / 1e9;
    m.goodputGbps = _window.goodputBytes * 8.0 / secs / 1e9;
    m.achievedRps = static_cast<double>(_window.completed) / secs;
    m.energy = energy;
    m.stageStats = _pipeline->snapshot();
    if (_tracer)
        m.slowestTraces = _tracer->slowest();
    m.accelBatching = accelEngine().discipline().batching();
    m.accelRing = accelEngine().ringSnapshot();
    if (!m.slowestTraces.empty() && m.accelRing.bounded()) {
        const Stage *accel_stage = _pipeline->stage(_accelStageName);
        m.backpressure = correlateRingFull(
            m.slowestTraces, accelEngine().ringFullSpans(),
            accel_stage ? accel_stage->index() : -1);
    }
    return m;
}

Measurement
Testbed::runWindow(double offered_gbps, sim::Tick warmup,
                   sim::Tick window,
                   const std::function<void(sim::Tick)> &start)
{
    openWindow();
    const sim::Tick window_start = _sim->now() + warmup;
    const sim::Tick window_end = window_start + window;
    start(window_end);
    _sim->runUntil(window_start);
    armWindow();
    _sim->runUntil(window_end);
    const power::EnergyReading energy = closeWindow();
    if (_gen)
        _gen->stop();
    _closedLoopActive = false;
    return collect(offered_gbps, window, energy);
}

Measurement
Testbed::measure(double gbps, sim::Tick warmup, sim::Tick window)
{
    return runWindow(gbps, warmup, window, [this, gbps](sim::Tick end) {
        if (_gen) {
            _gen->startAtRate(gbps, end);
        } else {
            // Local open-loop job generator (Cryptography).
            startLocalGenerator(gbps, end);
        }
    });
}

Measurement
Testbed::measureClosedLoop(unsigned depth, sim::Tick warmup,
                           sim::Tick window)
{
    return runWindow(0.0, warmup, window, [this, depth](sim::Tick) {
        _closedLoopActive = true;
        _targetDepth = depth;
        _inFlight = 0;
        for (unsigned i = 0; i < depth; ++i)
            issueClosedLoopJob();
    });
}

Measurement
Testbed::replaySchedule(const std::vector<double> &rates_gbps,
                        sim::Tick bin)
{
    if (!_gen)
        sim::fatal("Testbed::replaySchedule requires a network drive");
    openWindow();
    _servedSeries = std::make_unique<stats::TimeSeries>(bin);

    // No warm-up: the window is armed as the schedule starts.
    const sim::Tick start = _sim->now();
    const sim::Tick end = start + bin * rates_gbps.size();
    _gen->startSchedule(rates_gbps, bin);
    armWindow();
    _sim->runUntil(end);
    // Run a little past the end so in-flight requests drain. Only the
    // stage stats and the energy meter see the drain: recording
    // stops at the schedule's end.
    _window.recording = false;
    _sim->runUntil(end + sim::msToTicks(2.0));
    const power::EnergyReading energy = closeWindow();

    double mean_rate = 0.0;
    for (double r : rates_gbps)
        mean_rate += r;
    mean_rate /= static_cast<double>(rates_gbps.size());

    Measurement m = collect(mean_rate, end - start, energy);
    const std::size_t first_bin =
        static_cast<std::size_t>(start / bin);
    for (std::size_t i = first_bin;
         i < first_bin + rates_gbps.size(); ++i) {
        m.servedGbpsSeries.push_back(_servedSeries->rate(i) * 8.0 /
                                     1e9);
    }
    _servedSeries.reset();
    return m;
}

void
Testbed::startLocalGenerator(double gbps, sim::Tick until)
{
    const double mean_bytes = _workload->spec().sizes.meanBytes();
    const double jobs_per_sec =
        net::gbpsToBytesPerSec(gbps) / mean_bytes;
    scheduleLocalJob(jobs_per_sec, until);
}

void
Testbed::scheduleLocalJob(double jobs_per_sec, sim::Tick until)
{
    if (_sim->now() >= until)
        return;
    net::Packet job;
    job.id = ++_jobSeq;
    job.sizeBytes = _workload->spec().sizes.sample(_sim->rng());
    job.createdAt = _sim->now();
    job.flowHash = _sim->rng().next();
    _pipeline->inject(job);

    const double gap_sec =
        _sim->rng().exponential(1.0 / jobs_per_sec);
    const auto gap =
        std::max<sim::Tick>(static_cast<sim::Tick>(gap_sec * 1e12), 1);
    _sim->after(gap, [this, jobs_per_sec, until] {
        scheduleLocalJob(jobs_per_sec, until);
    }, "testbed-local-job");
}

double
Testbed::estimateCapacityRps(int samples)
{
    const workloads::Spec &spec = _workload->spec();
    sim::Random rng(_config.seed + 7777);

    // Per-platform demand accumulators in first-use order: a
    // single-function chain reproduces the seed estimator's two
    // (serving CPU, engine) bit for bit; longer chains add one slot
    // per distinct platform they touch.
    std::vector<hw::ExecutionPlatform *> plats;
    std::vector<double> totals;
    auto charge = [&](hw::ExecutionPlatform &p, double ns) {
        for (std::size_t i = 0; i < plats.size(); ++i) {
            if (plats[i] == &p) {
                totals[i] += ns;
                return;
            }
        }
        plats.push_back(&p);
        totals.push_back(ns);
    };

    const bool network = spec.drive == workloads::Drive::Network &&
                         !spec.dataPlaneOffload;
    double crossing_bytes = 0.0;  // PCIe payload per-sample total
    // Cross-member hop payload per destination member: each hop
    // serializes on that member's own ingress wire.
    std::vector<double> hop_bytes;
    for (int i = 0; i < samples; ++i) {
        const auto bytes = spec.sizes.sample(rng);
        std::uint32_t in_bytes = bytes;
        for (std::size_t k = 0; k < _chain.size(); ++k) {
            const ChainStageRuntime &st = _chain[k];
            // Rack-spanning chains price each stage on its own
            // member's hardware (distinct platform slots), so a split
            // chain's capacity adds up across members.
            hw::ServerModel &srv = st.server ? *st.server : *_server;
            auto plan =
                st.workload->plan(in_bytes, st.placement.kind, rng);
            alg::WorkCounters cpu_work = plan.cpuWork;
            if (network && k == 0)
                cpu_work += _stack->rxWork(bytes);
            if (network && k == 0 &&
                spec.stack == stack::StackKind::Xdp) {
                // Every XDP packet runs the program on the NIC-side
                // cores before (or instead of) the kernel path; that
                // demand is part of capacity even when the serving
                // CPU is the host.
                const auto &xdp =
                    static_cast<const stack::XdpStack &>(*_stack);
                charge(srv.snicCpu(),
                       srv.snicCpu().serviceNs(xdp.programWork()));
            }
            if (network && k == _chain.size() - 1 &&
                plan.responseBytes > 0) {
                cpu_work += _stack->txWork(plan.responseBytes);
            }
            charge(srv.cpuFor(st.placement.kind),
                   srv.cpuFor(st.placement.kind).serviceNs(cpu_work));
            if (!plan.accelWork.empty()) {
                hw::ExecutionPlatform &engine =
                    srv.accel(st.workload->spec().accel);
                charge(engine, engine.serviceNs(plan.accelWork));
            }
            if (k > 0) {
                if (st.member != _chain[k - 1].member) {
                    // The payload rides the ToR wire, not this
                    // member's PCIe bus.
                    if (hop_bytes.size() <= st.member)
                        hop_bytes.resize(st.member + 1, 0.0);
                    hop_bytes[st.member] += in_bytes;
                } else if (hw::crossesPcie(_chain[k - 1].placement,
                                           st.placement)) {
                    crossing_bytes += in_bytes;
                }
            }
            if (plan.responseBytes > 0)
                in_bytes = plan.responseBytes;
        }
    }
    const double n = static_cast<double>(samples);
    double capacity = 1e18;  // effectively unbounded
    for (std::size_t i = 0; i < plats.size(); ++i) {
        const double mean_ns = totals[i] / n;
        if (mean_ns > 0.0) {
            capacity = std::min(
                capacity, plats[i]->numWorkers() * 1e9 / mean_ns);
        }
    }
    // Inter-stage PCIe crossings bound chains that straddle the bus.
    if (crossing_bytes > 0.0) {
        capacity = std::min(
            capacity, hw::specs::pcieGBps * 1e9 / (crossing_bytes / n));
    }
    // Cross-member hops bound spanning chains by each destination
    // member's ingress wire.
    for (double b : hop_bytes) {
        if (b > 0.0) {
            capacity = std::min(
                capacity,
                net::gbpsToBytesPerSec(hw::specs::lineRateGbps) /
                    (b / n));
        }
    }
    // The wire bounds network drives.
    if (spec.drive == workloads::Drive::Network) {
        capacity = std::min(
            capacity, net::gbpsToBytesPerSec(hw::specs::lineRateGbps) /
                          spec.sizes.meanBytes());
    }
    return capacity;
}

} // namespace snic::core
