/**
 * @file
 * The BlueField-2 accelerator engines (Sec. 2.2): regular-expression
 * matching (RXP), public-key cryptography (PKA) and Deflate
 * compression.
 *
 * Each engine is an ExecutionPlatform with few lanes, a per-job setup
 * cost and a pipeline latency (the queue -> SNIC-CPU staging -> PCIe
 * -> engine -> result-DMA path). The per-job setup plus the finite
 * lane throughput produce the two signature behaviours of the paper:
 * the ~50 Gbps ceiling (KO3) and the ~25 µs latency floor vs the host
 * CPU's 5 µs at low rates (Fig. 5).
 */

#ifndef SNIC_HW_ACCELERATOR_HH
#define SNIC_HW_ACCELERATOR_HH

#include <memory>

#include "hw/platform.hh"

namespace snic::hw {

/** Accelerator kinds available on the SNIC. */
enum class AccelKind
{
    Rem,          ///< regular-expression matching (RXP)
    Pka,          ///< public-key / crypto engine
    Compression,  ///< Deflate engine
};

/**
 * Create an accelerator engine.
 *
 * The returned platform prices work with an accelerator-specific
 * cost model: REM and Compression charge per byte scanned
 * (streamBytes) at the engine's sustained rate and ignore the
 * branchy/random categories entirely (hardware automata do not
 * pointer-chase), which is why they are insensitive to rule-set
 * complexity (KO4). PKA charges the crypto categories at its fixed
 * function rates.
 */
std::unique_ptr<ExecutionPlatform>
makeAccelerator(sim::Simulation &sim, AccelKind kind);

/**
 * The engine's calibrated hardware batching parameters (the DOCA job
 * path): REM coalesces ~32 packets per RXP job; PKA and Compression
 * post one job per request (identity configs).
 */
BatchConfig accelBatchDefaults(AccelKind kind);

/** Human-readable engine name. */
const char *accelName(AccelKind kind);

} // namespace snic::hw

#endif // SNIC_HW_ACCELERATOR_HH
