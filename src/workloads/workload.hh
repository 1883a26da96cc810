/**
 * @file
 * Workload framework: the 13 functions of Table 3 as pluggable
 * request planners.
 *
 * A Workload holds real application state built in setup(): its own
 * KV store (keys and value lengths) or BM25 index, or a read-only
 * product shared through the setup cache (setup_cache.hh): a NAT
 * table, or a work profile measured by running the real kernel
 * (Deflate, DFA scans, crypto). For every request it produces a
 * RequestPlan: the CPU-side work, an optional accelerator job, and
 * the response size. The testbed (core/) wires plans through the
 * stack and platform models and measures the resulting throughput
 * and latency.
 */

#ifndef SNIC_WORKLOADS_WORKLOAD_HH
#define SNIC_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>

#include "alg/workcount.hh"
#include "hw/server.hh"
#include "net/size_dist.hh"
#include "sim/random.hh"
#include "stack/stack_model.hh"

namespace snic::workloads {

/** How requests reach the function. */
enum class Drive
{
    Network,    ///< packets from the client over the 100 GbE link
    LocalJobs,  ///< locally generated jobs (Cryptography, fio)
};

/**
 * Static description of one workload configuration (one Fig. 4 bar
 * group), e.g. "redis_a" or "rem_img".
 */
struct Spec
{
    std::string id;           ///< unique config id ("redis_a")
    std::string family;       ///< function name ("redis")
    std::string configLabel;  ///< the paper's parameter ("workload_a")
    stack::StackKind stack = stack::StackKind::Udp;
    Drive drive = Drive::Network;
    net::SizeDist sizes = net::SizeDist::fixed(net::kbPacketBytes);

    /** Table 3 execution-platform checkmarks. */
    bool supportsHost = true;
    bool supportsSnicCpu = true;
    bool supportsAccel = false;
    hw::AccelKind accel = hw::AccelKind::Rem;

    /** How the engine's queue coalesces this function's jobs. The
     *  default (batch 1, no window) is the identity Immediate path;
     *  workloads whose driver batches job posts (REM's DOCA path)
     *  set the engine's hardware defaults here. The testbed can
     *  override per run (TestbedConfig::accelQueueing). */
    hw::BatchConfig accelBatch;

    /** Cores the function may use on each platform (Sec. 3.3/3.4:
     *  microbenchmarks use 1, REM staging uses 2 SNIC cores, ...). */
    unsigned hostCores = 8;
    unsigned snicCores = 8;

    /** Data plane handled by the eSwitch (OvS): packets bypass the
     *  CPU and the stack entirely except for control-plane upcalls
     *  encoded in the plan. */
    bool dataPlaneOffload = false;

    /** RDMA configurations using one-sided verbs (READ/WRITE): the
     *  serving CPU never touches the payload. */
    bool rdmaOneSided = false;

    /** Operating point for the latency/power measurement, as a
     *  fraction of measured capacity. 0 = the harness default.
     *  OvS's "10% / 100% of line rate" configurations use this. */
    double operatingLoadFactor = 0.0;
};

/** What one request costs. */
struct RequestPlan
{
    /** Application work on the serving CPU (staging work when the
     *  accelerator executes the function). */
    alg::WorkCounters cpuWork;
    /** Accelerator job; empty when the CPU runs the function. */
    alg::WorkCounters accelWork;
    /** Response payload size. */
    std::uint32_t responseBytes = 0;
    /** Wire size of the request this plan was made for — the payload
     *  a downstream chain stage receives (chains feed a stage's
     *  output into the next stage's planner). */
    std::uint32_t requestBytes = 0;
    /** Extra path latency (ns) beyond CPU/accelerator service —
     *  completion hops that differ per platform (fio's read/write
     *  asymmetry). */
    double extraLatencyNs = 0.0;
};

/**
 * Abstract workload.
 */
class Workload
{
  public:
    explicit Workload(Spec spec) : _spec(std::move(spec)) {}
    virtual ~Workload() = default;

    const Spec &spec() const { return _spec; }
    const std::string &id() const { return _spec.id; }

    /** Build datasets (deterministic given @p rng's seed). */
    virtual void setup(sim::Random &rng) = 0;

    /**
     * Plan one request.
     *
     * @param request_bytes wire size of the request (or job size for
     *        LocalJobs drives).
     * @param platform      who executes the function.
     */
    virtual RequestPlan plan(std::uint32_t request_bytes,
                             hw::Platform platform,
                             sim::Random &rng) = 0;

    /** Whether Table 3 lists this platform for the function. */
    bool
    supports(hw::Platform p) const
    {
        switch (p) {
          case hw::Platform::HostCpu:
            return _spec.supportsHost;
          case hw::Platform::SnicCpu:
            return _spec.supportsSnicCpu;
          case hw::Platform::SnicAccel:
            return _spec.supportsAccel;
        }
        return false;
    }

  protected:
    Spec _spec;
};

using WorkloadPtr = std::unique_ptr<Workload>;

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_WORKLOAD_HH
