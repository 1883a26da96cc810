/**
 * @file
 * Process-wide cache of workload setup products.
 *
 * Several workloads measure a work profile at setup by running their
 * real kernel (Deflate, DFA scans, RSA) and only read it afterwards.
 * Every testbed that runs such a function would otherwise measure
 * the same profile again. cachedSetup builds each product once per
 * key and hands every later caller the same immutable object.
 *
 * Invariant: a cached setup depends only on its spec id and the RNG.
 * The key is the product type, the id and the generator's complete
 * state at entry (sim::Random::State). On a hit the generator is
 * restored to the state the build left, so every later draw is
 * bitwise what a rebuild would give.
 *
 * Threads share the cache: each key carries its own once-flag, and
 * the map lock is held only to look a key up or insert it, so a
 * build never blocks lookups of other keys.
 */

#ifndef SNIC_WORKLOADS_SETUP_CACHE_HH
#define SNIC_WORKLOADS_SETUP_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <typeindex>

#include "sim/random.hh"

namespace snic::workloads {

namespace detail {

using ErasedBuild =
    std::function<std::shared_ptr<const void>(sim::Random &)>;

std::shared_ptr<const void> cachedSetup(std::type_index type,
                                        const std::string &id,
                                        sim::Random &rng,
                                        const ErasedBuild &build);

} // namespace detail

/**
 * The product of @p build(rng) for (T, @p id, @p rng's state),
 * building it on the first call for that key only. Either way @p rng
 * leaves in the state the build left it.
 *
 * @p build must be a pure function of @p id and the generator it is
 * given, returning a T.
 */
template <class T, class Build>
std::shared_ptr<const T>
cachedSetup(const std::string &id, sim::Random &rng, Build &&build)
{
    return std::static_pointer_cast<const T>(detail::cachedSetup(
        typeid(T), id, rng,
        [&build](sim::Random &r) -> std::shared_ptr<const void> {
            return std::make_shared<T>(build(r));
        }));
}

/** Builds the cache has run in this process (read-only). */
std::uint64_t setupCacheBuilds();

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_SETUP_CACHE_HH
