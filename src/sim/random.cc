/**
 * @file
 * Random implementation: xoshiro256** core plus distributions.
 */

#include "sim/random.hh"

#include <bit>
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

/** A polynomial over GF(2) of degree < 256; bit i of word i / 64
 *  holds the coefficient of x^i. */
using Poly = std::array<std::uint64_t, 4>;

/** The characteristic polynomial P of the xoshiro256 state
 *  transition T, less its leading x^256 term: T^256 is the sum of the
 *  T^i whose bits are set here. */
constexpr Poly kCharPoly{0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                         0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

bool
coefficient(const Poly &p, int i)
{
    return (p[i / 64] >> (i % 64)) & 1;
}

/** x * p mod P. */
Poly
timesX(Poly p)
{
    const bool carry = p[3] >> 63;
    for (int w = 3; w > 0; --w)
        p[w] = (p[w] << 1) | (p[w - 1] >> 63);
    p[0] <<= 1;
    if (carry)
        for (int w = 0; w < 4; ++w)
            p[w] ^= kCharPoly[w];
    return p;
}

/** a * b mod P, by Horner's rule over b's coefficients. */
Poly
mulMod(const Poly &a, const Poly &b)
{
    Poly r{};
    for (int i = 255; i >= 0; --i) {
        r = timesX(r);
        if (coefficient(b, i))
            for (int w = 0; w < 4; ++w)
                r[w] ^= a[w];
    }
    return r;
}

/** x^n mod P by square-and-multiply. */
Poly
xPowMod(std::uint64_t n)
{
    Poly r{1, 0, 0, 0};
    for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
        r = mulMod(r, r);
        if ((n >> bit) & 1)
            r = timesX(r);
    }
    return r;
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

void
Random::discard(std::uint64_t n)
{
    // T is linear over GF(2) and P(T) = 0, so T^n = r(T) with
    // r = x^n mod P: sum the states T^i s whose coefficient r_i is set
    // (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random
    // Number Generators", 2008).
    const Poly r = xPowMod(n);
    std::array<std::uint64_t, 4> sum{};
    for (int i = 0; i < 256; ++i) {
        if (coefficient(r, i))
            for (int w = 0; w < 4; ++w)
                sum[w] ^= _s[w];
        next();
    }
    _s = sum;
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
