/**
 * @file
 * TorSwitch implementation.
 */

#include "net/tor_switch.hh"

#include <algorithm>
#include <numeric>

#include "sim/logging.hh"

namespace snic::net {

const char *
dispatchPolicyName(DispatchPolicy p)
{
    switch (p) {
      case DispatchPolicy::PassThrough:
        return "pass_through";
      case DispatchPolicy::RoundRobin:
        return "round_robin";
      case DispatchPolicy::Random:
        return "random";
      case DispatchPolicy::Random2Choice:
        return "random_2choice";
      case DispatchPolicy::FlowHash:
        return "flow_hash";
      case DispatchPolicy::LeastQueue:
        return "least_queue";
      case DispatchPolicy::RandomDChoice:
        return "random_dchoice";
    }
    sim::panic("dispatchPolicyName: bad policy");
}

namespace {

/** splitmix64 finalizer: decorrelates flow ids from member counts so
 *  flow -> member placement behaves like an independent hash. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // anonymous namespace

std::uint64_t
hotKeyCollapse(std::uint64_t raw_hash, std::uint64_t key_count,
               double hot_fraction, sim::Random &rng)
{
    std::uint64_t key = raw_hash % key_count;
    if (hot_fraction > 0.0 && rng.chance(hot_fraction))
        key = 0;
    return key;
}

TorSwitch::TorSwitch(const TorConfig &config)
    : _config(config),
      _rng(config.seed * 0x9e3779b97f4a7c15ULL + 0x7045ULL),
      _dispatched(config.members, 0),
      _live(config.members, true),
      _liveList(config.members)
{
    if (_config.members == 0)
        sim::fatal("TorSwitch: a rack needs at least one member");
    if (_config.policy == DispatchPolicy::PassThrough &&
        _config.members != 1) {
        sim::fatal("TorSwitch: pass_through is the 1-server identity "
                   "wiring (%u members configured)", _config.members);
    }
    if (_config.flowCount == 0)
        _config.flowCount = 1;
    if (_config.policy == DispatchPolicy::RandomDChoice &&
        _config.probes == 0) {
        sim::fatal("TorSwitch: random_dchoice needs at least one "
                   "probe (d >= 1)");
    }
    // Every member starts live: the identity list.
    std::iota(_liveList.begin(), _liveList.end(), 0u);
}

double
TorSwitch::forwardNs() const
{
    if (_config.policy == DispatchPolicy::PassThrough)
        return 0.0;
    // Bounded-probe JSQ(d) pays for the queue-depth reads it issues
    // on top of the cut-through forwarding cost.
    if (_config.policy == DispatchPolicy::RandomDChoice)
        return _config.forwardNs + _config.probes * _config.probeNs;
    return _config.forwardNs;
}

std::uint64_t
TorSwitch::load(unsigned member)
{
    return _probe ? _probe(member) : 0;
}

void
TorSwitch::setLive(unsigned m, bool live)
{
    if (m >= _config.members)
        sim::fatal("TorSwitch: setLive(%u) of %u members", m,
                   _config.members);
    if (_live[m] == live)
        return;
    if (!live && _liveList.size() == 1)
        sim::fatal("TorSwitch: cannot remove the last live member");
    _live[m] = live;
    _liveList.clear();
    for (unsigned i = 0; i < _config.members; ++i) {
        if (_live[i])
            _liveList.push_back(i);
    }
}

unsigned
TorSwitch::pick(const Packet &pkt)
{
    // Every policy picks over the live list — the identity list when
    // the whole rack is live. RoundRobin keeps its rotation counter
    // so re-awakened members rejoin the rotation seamlessly; FlowHash
    // re-hashes flows onto the live list (the ECMP rehash a real ToR
    // performs when a next-hop is withdrawn); the load-aware policies
    // never probe a dead member.
    const unsigned n = liveCount();
    unsigned target = _liveList[0];
    switch (_config.policy) {
      case DispatchPolicy::PassThrough:
        // Pass-through is the 1-server identity wiring; its only
        // member can never be removed (last-live guard above).
        break;
      case DispatchPolicy::RoundRobin:
        target = _liveList[static_cast<unsigned>(_rrNext++ % n)];
        break;
      case DispatchPolicy::Random:
        target = _liveList[static_cast<unsigned>(
            _rng.uniformInt(0, n - 1))];
        break;
      case DispatchPolicy::Random2Choice: {
        const unsigned a = _liveList[static_cast<unsigned>(
            _rng.uniformInt(0, n - 1))];
        const unsigned b = _liveList[static_cast<unsigned>(
            _rng.uniformInt(0, n - 1))];
        target = load(b) < load(a) ? b : a;
        break;
      }
      case DispatchPolicy::FlowHash: {
        // Collapse the packet's RSS hash onto flowCount sticky flows,
        // optionally re-pointing a hot fraction at flow 0, then hash
        // the flow to a member. The hot-flow coin comes from the
        // switch's private RNG so the traffic stream itself is
        // unchanged across policies.
        const std::uint64_t flow = hotKeyCollapse(
            pkt.flowHash, _config.flowCount, _config.hotFlowFraction,
            _rng);
        target = _liveList[static_cast<unsigned>(mix64(flow) % n)];
        break;
      }
      case DispatchPolicy::LeastQueue: {
        // Track the argmin's position and map it to a member once.
        unsigned best_i = 0;
        if (_batchProbe) {
            _loadScratch.resize(n);
            _batchProbe(n == _config.members ? nullptr
                                             : _liveList.data(),
                        n, _loadScratch.data());
            std::uint64_t best = _loadScratch[0];
            for (unsigned i = 1; i < n; ++i) {
                if (_loadScratch[i] < best) {
                    best = _loadScratch[i];
                    best_i = i;
                }
            }
        } else {
            std::uint64_t best = load(_liveList[0]);
            for (unsigned i = 1; i < n; ++i) {
                const std::uint64_t l = load(_liveList[i]);
                if (l < best) {
                    best = l;
                    best_i = i;
                }
            }
        }
        target = _liveList[best_i];
        break;
      }
      case DispatchPolicy::RandomDChoice: {
        // d samples with replacement, keep the first minimum. With
        // d=2 this draws and compares exactly like Random2Choice
        // (target=a, challenger=b, strict-less replaces), so the two
        // policies pick identically from the same RNG state; d=1 is
        // one draw — Random's dispatch sequence bit for bit.
        target = _liveList[static_cast<unsigned>(
            _rng.uniformInt(0, n - 1))];
        std::uint64_t best = load(target);
        for (unsigned p = 1; p < _config.probes; ++p) {
            const unsigned c = _liveList[static_cast<unsigned>(
                _rng.uniformInt(0, n - 1))];
            const std::uint64_t l = load(c);
            if (l < best) {
                best = l;
                target = c;
            }
        }
        break;
      }
    }
    ++_dispatched[target];
    return target;
}

unsigned
TorSwitch::pickChainIngress(unsigned m)
{
    if (m >= _config.members)
        sim::fatal("TorSwitch: chain ingress member %u of %u", m,
                   _config.members);
    if (!_live[m])
        sim::fatal("TorSwitch: chain ingress member %u is not live", m);
    ++_dispatched[m];
    return m;
}

double
TorSwitch::forwardChainHop(unsigned to_member)
{
    if (to_member >= _config.members)
        sim::fatal("TorSwitch: chain hop to member %u of %u",
                   to_member, _config.members);
    if (!_live[to_member])
        sim::fatal("TorSwitch: chain hop to member %u, which is "
                   "draining or asleep — chain stages must stay on "
                   "live members", to_member);
    ++_chainForwards;
    return _config.forwardNs;
}

double
TorSwitch::imbalance() const
{
    std::uint64_t total = 0, worst = 0;
    for (std::uint64_t d : _dispatched) {
        total += d;
        worst = std::max(worst, d);
    }
    if (total == 0)
        return 0.0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(_dispatched.size());
    return static_cast<double>(worst) / mean;
}

void
TorSwitch::resetStats()
{
    std::fill(_dispatched.begin(), _dispatched.end(), 0);
    _chainForwards = 0;
}

} // namespace snic::net
