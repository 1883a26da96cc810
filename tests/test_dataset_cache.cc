/**
 * @file
 * Tests for the process-wide workload setup cache
 * (workloads/setup_cache.hh): a second setup from the same RNG state
 * is a hit that leaves the generator where the build left it and
 * plans exactly like the built instance; any other entry state builds
 * anew; concurrent setups of one key share a single build; NAT's
 * translation table is shared the same way; and functionProfile is
 * cached on its own arguments.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "workloads/registry.hh"
#include "workloads/setup_cache.hh"

using namespace snic;
using namespace snic::workloads;

namespace {

/** Every configuration whose setup measures a work profile. */
std::vector<std::string>
cachedIds()
{
    std::vector<std::string> ids;
    for (const auto &id : allWorkloadIds()) {
        if (id.starts_with("comp_") || id.starts_with("rem_") ||
            id.starts_with("snort_") || id.starts_with("crypto_"))
            ids.push_back(id);
    }
    return ids;
}

void
expectSameWork(const alg::WorkCounters &a, const alg::WorkCounters &b)
{
    EXPECT_EQ(a.streamBytes, b.streamBytes);
    EXPECT_EQ(a.randomTouches, b.randomTouches);
    EXPECT_EQ(a.branchyOps, b.branchyOps);
    EXPECT_EQ(a.arithOps, b.arithOps);
    EXPECT_EQ(a.cryptoBlocks, b.cryptoBlocks);
    EXPECT_EQ(a.hashBlocks, b.hashBlocks);
    EXPECT_EQ(a.bigMulOps, b.bigMulOps);
    EXPECT_EQ(a.kernelOps, b.kernelOps);
    EXPECT_EQ(a.messages, b.messages);
}

/** Plan @p n requests on @p platform with each workload, each
 *  drawing from its own copy of the generator, and compare. */
void
expectSamePlans(Workload &a, sim::Random ra, Workload &b, sim::Random rb,
                hw::Platform platform, int n)
{
    for (int i = 0; i < n; ++i) {
        const auto bytes_a = a.spec().sizes.sample(ra);
        const auto bytes_b = b.spec().sizes.sample(rb);
        ASSERT_EQ(bytes_a, bytes_b);
        const RequestPlan pa = a.plan(bytes_a, platform, ra);
        const RequestPlan pb = b.plan(bytes_b, platform, rb);
        expectSameWork(pa.cpuWork, pb.cpuWork);
        expectSameWork(pa.accelWork, pb.accelWork);
        ASSERT_EQ(pa.responseBytes, pb.responseBytes)
            << a.id() << " plan " << i;
    }
}

/** A second setup of @p id from the generator state of the first is
 *  a cache hit that leaves the generator where the build left it and
 *  plans exactly like the built instance. */
void
expectSecondSetupIsAHit(const std::string &id)
{
    SCOPED_TRACE(id);
    const std::uint64_t builds0 = setupCacheBuilds();
    sim::Random first(9001);
    WorkloadPtr built = makeWorkload(id);
    built->setup(first);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 1);

    sim::Random second(9001);
    WorkloadPtr hit = makeWorkload(id);
    hit->setup(second);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 1);
    EXPECT_EQ(second.state(), first.state());

    for (const hw::Platform platform :
         {hw::Platform::HostCpu, hw::Platform::SnicCpu,
          hw::Platform::SnicAccel}) {
        if (built->supports(platform))
            expectSamePlans(*built, first, *hit, second, platform, 1000);
    }
}

void
expectSameProfile(const FunctionProfile &a, const FunctionProfile &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.meanRequestBytes, b.meanRequestBytes);
    EXPECT_EQ(a.meanResponseBytes, b.meanResponseBytes);
    EXPECT_EQ(a.hostCpuNs, b.hostCpuNs);
    EXPECT_EQ(a.snicCpuNs, b.snicCpuNs);
    EXPECT_EQ(a.accelStagingNs, b.accelStagingNs);
    EXPECT_EQ(a.engineNs, b.engineNs);
}

} // anonymous namespace

TEST(DatasetCache, SecondSetupFromSameStateIsAHit)
{
    const auto ids = cachedIds();
    ASSERT_EQ(ids.size(), 16u);
    for (const auto &id : ids)
        expectSecondSetupIsAHit(id);
}

TEST(DatasetCache, NatTableIsSharedLikeAProfile)
{
    // plan() only reads the translation table, so the host and SNIC
    // cells of one NAT configuration share a single build.
    for (const char *id : {"nat_10k", "nat_1m"})
        expectSecondSetupIsAHit(id);
}

TEST(DatasetCache, DifferentEntryStateBuildsANewEntry)
{
    const std::uint64_t builds0 = setupCacheBuilds();
    sim::Random a(9101);
    makeWorkload("rem_exe")->setup(a);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 1);

    // Other xoshiro words.
    sim::Random b(9102);
    makeWorkload("rem_exe")->setup(b);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 2);

    // Same words, but a Box-Muller spare pending.
    sim::Random c(9101);
    sim::Random::State spare = c.state();
    spare.haveSpare = true;
    spare.spare = 0.5;
    c.restore(spare);
    makeWorkload("rem_exe")->setup(c);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 3);

    // Same state, other id.
    sim::Random d(9101);
    makeWorkload("rem_fla")->setup(d);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 4);

    // And the first key is still cached.
    sim::Random again(9101);
    makeWorkload("rem_exe")->setup(again);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 4);
    EXPECT_EQ(again.state(), a.state());
}

TEST(DatasetCache, ConcurrentSetupsOfOneKeyShareOneBuild)
{
    struct Product
    {
        std::uint64_t drawn;
    };
    constexpr int kThreads = 4;
    std::atomic<int> runs{0};
    const auto build = [&runs](sim::Random &rng) {
        runs.fetch_add(1);
        // Hold the build open so the other callers arrive during it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return Product{rng.next()};
    };

    const std::uint64_t builds0 = setupCacheBuilds();
    std::vector<std::shared_ptr<const Product>> got(kThreads);
    std::vector<sim::Random> rngs(kThreads, sim::Random(9201));
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[t] = cachedSetup<Product>("concurrent", rngs[t], build);
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 1);
    sim::Random expected(9201);
    const std::uint64_t drawn = expected.next();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_NE(got[t], nullptr);
        EXPECT_EQ(got[t], got[0]);
        EXPECT_EQ(rngs[t].state(), expected.state());
    }
    EXPECT_EQ(got[0]->drawn, drawn);
}

TEST(DatasetCache, FunctionProfileIsCachedOnItsArguments)
{
    const std::uint64_t builds0 = setupCacheBuilds();
    const FunctionProfile p = functionProfile("redis_a", 9301, 16);
    // redis_a keeps its store per testbed: the profile is the only
    // cached product.
    EXPECT_EQ(setupCacheBuilds(), builds0 + 1);
    expectSameProfile(functionProfile("redis_a", 9301, 16), p);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 1);

    functionProfile("redis_a", 9301, 17);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 2);
    functionProfile("redis_a", 9302, 16);
    EXPECT_EQ(setupCacheBuilds(), builds0 + 3);
}
