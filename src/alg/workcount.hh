/**
 * @file
 * Deterministic work accounting shared by every algorithm substrate.
 *
 * Each function implementation (Deflate, AES, regex matching, KVS
 * probes, ...) increments these counters as it executes. The hardware
 * platform models convert the counters into service time using
 * per-platform cycle coefficients (see hw/platform.hh), which is how
 * the same functional code yields different throughput/latency on the
 * host Xeon, the SNIC Arm cores, and the SNIC accelerators — the
 * mechanism behind the paper's Key Observations 2 and 4.
 */

#ifndef SNIC_ALG_WORKCOUNT_HH
#define SNIC_ALG_WORKCOUNT_HH

#include <cstdint>

namespace snic::alg {

/**
 * Categorised operation counts for one unit of work.
 *
 * The categories map to microarchitectural cost classes that differ
 * between platforms:
 *  - streamBytes:   sequential memory traffic (bandwidth-bound);
 *  - randomTouches: dependent loads (latency-bound: hash probes,
 *                   pointer chases, table walks);
 *  - branchyOps:    control-heavy steps (regex transitions, LZ match
 *                   search) that suffer on narrow in-order-ish cores;
 *  - arithOps:      straight-line ALU work (hashing, scoring);
 *  - cryptoBlocks:  AES-class cipher blocks (ISA-accelerated on the
 *                   host via AES-NI-style extensions, KO2);
 *  - hashBlocks:    SHA-class digest blocks (the host Xeon of the
 *                   paper lacks SHA extensions, so these are NOT
 *                   ISA-accelerated there — the KO2 SHA-1 asymmetry);
 *  - bigMulOps:     word-size modular-multiply steps (RSA);
 *  - kernelOps:     OS network-stack steps (syscalls, softirq, skb
 *                   and socket management). Priced far worse on the
 *                   SNIC's A72 cores than on the host (no DDIO, small
 *                   TLBs, slow atomics) — the KO1 mechanism;
 *  - messages:      logical requests completed.
 */
struct WorkCounters
{
    std::uint64_t streamBytes = 0;
    std::uint64_t randomTouches = 0;
    std::uint64_t branchyOps = 0;
    std::uint64_t arithOps = 0;
    std::uint64_t cryptoBlocks = 0;
    std::uint64_t hashBlocks = 0;
    std::uint64_t bigMulOps = 0;
    std::uint64_t kernelOps = 0;
    std::uint64_t messages = 0;

    /** Element-wise sum. */
    WorkCounters &operator+=(const WorkCounters &other);

    /** True when every category is zero. */
    bool empty() const;
};

} // namespace snic::alg

#endif // SNIC_ALG_WORKCOUNT_HH
