/**
 * @file
 * Deterministic random-number generation for the testbed.
 *
 * Built on xoshiro256** (public-domain algorithm by Blackman & Vigna).
 * Every stochastic element of the simulation (arrival processes,
 * YCSB key popularity, packet-size mixes, sensor noise) draws from an
 * explicitly seeded Random instance so runs are reproducible.
 */

#ifndef SNIC_SIM_RANDOM_HH
#define SNIC_SIM_RANDOM_HH

#include <array>
#include <cstdint>
#include <vector>

namespace snic::sim {

/**
 * xoshiro256** generator plus the distributions the study needs.
 */
class Random
{
  public:
    /** Seed deterministically; the same seed reproduces a run. */
    explicit Random(std::uint64_t seed = 0x5eed5eedULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Leave the generator exactly where @p n calls to next() would,
     * in O(log n): x^n modulo the characteristic polynomial, applied
     * with 256 steps as the reference xoshiro jump() does. The
     * Box-Muller spare is kept, as next() keeps it.
     */
    void discard(std::uint64_t n);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Exponential with the given mean (> 0). */
    double exponential(double mean);

    /** Standard normal via Box-Muller, scaled to (mean, stddev). */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability @p p. */
    bool chance(double p);

    /** Bounded Pareto sample in [lo, hi] with shape @p alpha. */
    double boundedPareto(double lo, double hi, double alpha);

    /**
     * Sample an index from explicit weights (need not be normalized).
     *
     * @param weights non-negative weights; at least one positive.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** The generator's complete state: the four xoshiro words and
     *  the Box-Muller spare. Equal states draw equal streams. */
    struct State
    {
        std::array<std::uint64_t, 4> words{};
        bool haveSpare = false;
        double spare = 0.0;

        bool operator==(const State &) const = default;
    };

    State state() const;

    /** Continue from @p state, as if this generator had drawn its
     *  way there. */
    void restore(const State &state);

  private:
    std::array<std::uint64_t, 4> _s;
    bool _haveSpare = false;
    double _spare = 0.0;
};

/**
 * Zipf-distributed key sampler (YCSB-style "zipfian" popularity).
 *
 * Precomputes the harmonic normalizer; sampling is O(1) expected
 * using the rejection-inversion method of Hörmann & Derflinger.
 */
class ZipfSampler
{
  public:
    /**
     * @param n     population size (keys 0 .. n-1).
     * @param theta skew (YCSB default 0.99); 0 = uniform-ish.
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one key in [0, n). */
    std::uint64_t sample(Random &rng) const;

    std::uint64_t population() const { return _n; }
    double theta() const { return _theta; }

  private:
    std::uint64_t _n;
    double _theta;
    double _alpha;
    double _zetan;
    double _eta;
    double _zeta2theta;
};

} // namespace snic::sim

#endif // SNIC_SIM_RANDOM_HH
