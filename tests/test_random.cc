/**
 * @file
 * Unit and statistical tests for the RNG and samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "sim/random.hh"

using namespace snic::sim;

TEST(Random, SameSeedSameSequence)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Random, UniformInUnitInterval)
{
    Random rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Random, UniformIntCoversRangeInclusive)
{
    Random rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.uniformInt(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 7);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, ExponentialMeanMatches)
{
    Random rng(11);
    const double mean = 25.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.03);
}

TEST(Random, NormalMomentsMatch)
{
    Random rng(13);
    const int n = 50000;
    double sum = 0.0, sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(10.0, 2.0);
        sum += v;
        sum_sq += v * v;
    }
    const double m = sum / n;
    const double var = sum_sq / n - m * m;
    EXPECT_NEAR(m, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Random, ChanceRespectsProbability)
{
    Random rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(Random, BoundedParetoStaysInBounds)
{
    Random rng(19);
    for (int i = 0; i < 5000; ++i) {
        double v = rng.boundedPareto(64.0, 1500.0, 1.2);
        ASSERT_GE(v, 64.0 * 0.999);
        ASSERT_LE(v, 1500.0 * 1.001);
    }
}

TEST(Random, DiscretePicksByWeight)
{
    Random rng(23);
    std::vector<double> w{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        counts[rng.discrete(w)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(Random, DiscardMatchesRepeatedNext)
{
    // Below n = 256, x^n mod the characteristic polynomial is x^n
    // itself: only the larger n can catch a wrong polynomial.
    const std::uint64_t counts[] = {0,     1,       2,         255,
                                    256,   257,     4096,      65537,
                                    1'000'003,      30000 * 1024};
    for (std::uint64_t seed : {1, 7, 42}) {
        for (std::uint64_t n : counts) {
            Random jumped(seed), stepped(seed);
            // A pending Box-Muller spare survives the jump.
            jumped.normal(0.0, 1.0);
            stepped.normal(0.0, 1.0);
            jumped.discard(n);
            for (std::uint64_t i = 0; i < n; ++i)
                stepped.next();
            ASSERT_EQ(jumped.state(), stepped.state())
                << "seed " << seed << ", n " << n;
            EXPECT_TRUE(jumped.state().haveSpare);
        }
    }
}

TEST(ZipfSampler, SamplesWithinPopulation)
{
    Random rng(29);
    ZipfSampler zipf(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(zipf.sample(rng), 1000u);
}

TEST(ZipfSampler, HotKeysDominate)
{
    Random rng(31);
    ZipfSampler zipf(10000, 0.99);
    std::map<std::uint64_t, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        counts[zipf.sample(rng)]++;
    // With theta=0.99, the hottest key should capture a few percent of
    // all accesses and the top-10 a large share.
    int top = counts[0];
    EXPECT_GT(top, n / 100);
    int top10 = 0;
    for (std::uint64_t k = 0; k < 10; ++k)
        top10 += counts[k];
    EXPECT_GT(top10, n / 10);
}

TEST(ZipfSampler, LowThetaIsFlatter)
{
    Random rng(37);
    ZipfSampler hot(10000, 0.99), flat(10000, 0.01);
    int hot0 = 0, flat0 = 0;
    for (int i = 0; i < 50000; ++i) {
        hot0 += (hot.sample(rng) == 0);
        flat0 += (flat.sample(rng) == 0);
    }
    EXPECT_GT(hot0, flat0 * 3);
}
