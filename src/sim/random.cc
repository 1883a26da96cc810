/**
 * @file
 * Random implementation: xoshiro256** core plus distributions.
 */

#include "sim/random.hh"

#include <cassert>
#include <cmath>

#include "sim/logging.hh"

namespace snic::sim {

namespace {

/** splitmix64, used to expand the user seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** Generalized harmonic number sum_{i=1..n} 1/i^theta. */
double
zetaStatic(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

} // anonymous namespace

Random::Random(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : _s)
        s = splitmix64(x);
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
    const std::uint64_t t = _s[1] << 17;
    _s[2] ^= _s[0];
    _s[3] ^= _s[1];
    _s[1] ^= _s[2];
    _s[0] ^= _s[3];
    _s[2] ^= t;
    _s[3] = rotl(_s[3], 45);
    return result;
}

double
Random::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Random::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Random::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0)  // full 64-bit range
        return next();
    return lo + next() % span;
}

double
Random::exponential(double mean)
{
    assert(mean > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Random::normal(double mean, double stddev)
{
    if (_haveSpare) {
        _haveSpare = false;
        return mean + stddev * _spare;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    _spare = mag * std::sin(2.0 * M_PI * u2);
    _haveSpare = true;
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

bool
Random::chance(double p)
{
    return uniform() < p;
}

double
Random::boundedPareto(double lo, double hi, double alpha)
{
    assert(lo > 0.0 && hi > lo && alpha > 0.0);
    const double u = uniform();
    const double la = std::pow(lo, alpha);
    const double ha = std::pow(hi, alpha);
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

std::size_t
Random::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        assert(w >= 0.0);
        total += w;
    }
    if (total <= 0.0)
        panic("Random::discrete: all weights are zero");
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (u < weights[i])
            return i;
        u -= weights[i];
    }
    return weights.size() - 1;
}

Random::State
Random::state() const
{
    return State{_s, _haveSpare, _spare};
}

void
Random::restore(const State &state)
{
    _s = state.words;
    _haveSpare = state.haveSpare;
    _spare = state.spare;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : _n(n), _theta(theta)
{
    assert(n > 0);
    assert(theta >= 0.0 && theta < 1.0);
    _zeta2theta = zetaStatic(2, theta);
    _zetan = zetaStatic(n, theta);
    _alpha = 1.0 / (1.0 - theta);
    _eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - _zeta2theta / _zetan);
}

std::uint64_t
ZipfSampler::sample(Random &rng) const
{
    // Gray et al. "Quickly generating billion-record synthetic
    // databases" — the sampler YCSB itself uses.
    const double u = rng.uniform();
    const double uz = u * _zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, _theta))
        return 1;
    const auto idx = static_cast<std::uint64_t>(
        static_cast<double>(_n) *
        std::pow(_eta * u - _eta + 1.0, _alpha));
    return idx >= _n ? _n - 1 : idx;
}

} // namespace snic::sim
