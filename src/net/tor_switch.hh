/**
 * @file
 * Top-of-rack switch model: the dispatch decision that spreads one
 * aggregate traffic stream over the M servers of a rack.
 *
 * The switch is a *policy*, not a store-and-forward hop: per-member
 * uplink serialization and queueing are modelled by each server's own
 * 100 GbE Link, so cross-server imbalance and incast backlog emerge
 * from where the dispatcher sends packets rather than being assumed.
 * Non-pass-through policies charge a fixed forwarding latency
 * (TorConfig::forwardNs, hw::specs::torLatencyNs in the assembled
 * rack) through Packet::extraNs; PassThrough adds nothing, so a
 * 1-server rack reproduces the single-server testbed bitwise
 * (asserted in tests/test_rack.cc).
 *
 * The switch owns a private RNG: policy randomness must not perturb
 * the simulation's RNG stream, or per-server traffic would differ
 * across policies and policy comparisons would lose their paired-
 * sample power.
 */

#ifndef SNIC_NET_TOR_SWITCH_HH
#define SNIC_NET_TOR_SWITCH_HH

#include <cstdint>
#include "sim/inline_fn.hh"
#include <vector>

#include "net/packet.hh"
#include "sim/random.hh"

namespace snic::net {

/** How the ToR spreads packets over rack members. */
enum class DispatchPolicy
{
    /** Everything to member 0, zero added latency — the identity
     *  wiring that makes a 1-server rack equal the plain Testbed. */
    PassThrough,
    RoundRobin,     ///< strict rotation, per-packet
    Random,         ///< uniform random member
    /** Two random members, pick the shorter queue: RandomDChoice at
     *  d = 2, without the probe charge. */
    Random2Choice,
    /** Hash the packet's flow to a member (ECMP-style). Flows are
     *  sticky, so hot flows pin whole servers — the skew source. */
    FlowHash,
    LeastQueue,     ///< global shortest queue (ties: lowest index)
    /** Bounded-probe JSQ(d): sample TorConfig::probes members with
     *  replacement and keep the least loaded (first minimum wins on
     *  ties). d=1 picks as Random does, d=2 as Random2Choice; unlike
     *  those, every probe's cost is charged to the forwarding latency
     *  (probes x probeNs). */
    RandomDChoice,
};

/** Display name ("pass_through", "round_robin", ...). */
const char *dispatchPolicyName(DispatchPolicy p);

/**
 * The FlowHash hot-key collapse, exposed as a reusable popularity
 * generator: fold @p raw_hash onto @p key_count sticky keys, then
 * re-point a @p hot_fraction of draws at key 0 using a coin from
 * @p rng. This is exactly the skew machinery the FlowHash dispatch
 * policy applies to flows; the NICACHE benches reuse it to turn a
 * uniform packet stream into a skewed key-popularity stream, so the
 * front cache's hit ratio *emerges* from the same knob that skews
 * rack dispatch.
 */
std::uint64_t hotKeyCollapse(std::uint64_t raw_hash,
                             std::uint64_t key_count,
                             double hot_fraction, sim::Random &rng);

/** ToR configuration. */
struct TorConfig
{
    DispatchPolicy policy = DispatchPolicy::RoundRobin;
    unsigned members = 1;
    std::uint64_t seed = 1;
    /** FlowHash: packets are mapped onto this many distinct flows
     *  (fewer flows -> coarser, more collision-prone hashing). */
    unsigned flowCount = 64;
    /** FlowHash: fraction of packets re-pointed at flow 0 — the
     *  hot-key skew knob (0 = uniform flows). */
    double hotFlowFraction = 0.0;
    /** Cut-through forwarding latency charged per packet by every
     *  policy except PassThrough (which must stay cost-free). */
    double forwardNs = 600.0;
    /** RandomDChoice: how many members to probe per packet (d). */
    unsigned probes = 2;
    /** RandomDChoice: queue-depth register read cost per probe (ns),
     *  added to the forwarding latency — bounded-probe policies pay
     *  for the information they use. */
    double probeNs = 50.0;
};

/** Queue-depth observer for the load-aware policies: fill out[i]
 *  with the outstanding work of member members[i] for i in [0, n),
 *  in one pass per dispatch (members == nullptr means the identity
 *  set 0..n-1). A member may appear more than once. */
using BatchLoadProbe =
    sim::InlineFn<void(const unsigned *members, unsigned n,
                       std::uint64_t *out), 24>;

/**
 * The dispatcher. pick() returns the member index for one packet and
 * maintains per-member dispatch counts for imbalance reporting.
 */
class TorSwitch
{
  public:
    explicit TorSwitch(const TorConfig &config);

    /** Attach the queue-depth observer. Random2Choice, RandomDChoice
     *  and LeastQueue read it on every pick, and a pick without one is
     *  fatal; the oblivious policies ignore it. */
    void
    setBatchLoadProbe(BatchLoadProbe probe)
    {
        _batchProbe = std::move(probe);
    }

    /**
     * Mark member @p m (in)eligible for dispatch. Drained or asleep
     * rack members must not appear in any policy's candidate or
     * probe set — a least_queue probe would otherwise read the
     * sleeping member's empty queue and herd the whole rack onto a
     * box that serves nothing. Fatal if the last live member is
     * removed. With every member live (the default) the live list is
     * the identity, so each policy picks as over the whole rack.
     */
    void setLive(unsigned m, bool live);

    /** Is member @p m currently dispatchable? */
    bool live(unsigned m) const { return _live.at(m); }

    /** Number of dispatchable members. */
    unsigned liveCount() const
    {
        return static_cast<unsigned>(_liveList.size());
    }

    /** Choose the member for @p pkt. */
    unsigned pick(const Packet &pkt);

    /**
     * Dispatch for a rack-spanning service chain: every external
     * packet enters at the chain's ingress member @p m, bypassing the
     * policy (and its RNG), since mid-chain stages are pinned — the
     * placement, not the dispatcher, decides where work runs. Counts
     * into the per-member dispatch stats like pick().
     */
    unsigned pickChainIngress(unsigned m);

    /**
     * Mid-chain hop: a stage finishing on one member forwards the
     * payload through the ToR to stage's member @p to_member. Unlike
     * initial dispatch this is not a policy decision — the ToR just
     * prices the forwarding. Fatal when the target is asleep or
     * draining: the rack must never place chain stages on members it
     * can power down.
     *
     * @return forwarding latency (ns) the hop pays before wire
     *         serialization.
     */
    double forwardChainHop(unsigned to_member);

    /** Mid-chain forwards priced since resetStats(). */
    std::uint64_t chainForwards() const { return _chainForwards; }

    /** Forwarding latency charged per dispatched packet (ns). */
    double forwardNs() const;

    const TorConfig &config() const { return _config; }

    /** Packets dispatched to each member since resetStats(). */
    const std::vector<std::uint64_t> &dispatched() const
    {
        return _dispatched;
    }

    /** max/mean of the per-member dispatch counts (1 = perfectly
     *  balanced; 0 when nothing was dispatched). */
    double imbalance() const;

    /** Zero the dispatch counters (measurement window boundary). */
    void resetStats();

  private:
    TorConfig _config;
    sim::Random _rng;
    std::uint64_t _rrNext = 0;
    std::vector<std::uint64_t> _dispatched;
    std::uint64_t _chainForwards = 0;
    BatchLoadProbe _batchProbe;
    /** The d members a d-choice pick draws, and the probed loads;
     *  both sized at construction (no per-pick alloc). */
    std::vector<unsigned> _drawScratch;
    std::vector<std::uint64_t> _loadScratch;
    /** Eligibility mask (all true by default). */
    std::vector<bool> _live;
    /** Indices of the live members, ascending (the identity list
     *  when every member is live) — rebuilt by setLive so pick()
     *  never scans the mask. */
    std::vector<unsigned> _liveList;

    /** Probe the @p n members in @p ids (nullptr: members 0..n-1) in
     *  one batch and return the least loaded, the first on ties. */
    unsigned leastLoaded(const unsigned *ids, unsigned n);
};

} // namespace snic::net

#endif // SNIC_NET_TOR_SWITCH_HH
