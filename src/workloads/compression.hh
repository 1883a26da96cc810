/**
 * @file
 * Compression workload: Deflate level 9 over "Application" and "Text"
 * style inputs (Sec. 3.4: compressionratings.com Application3/Text1;
 * dpdk-test-compress-perf against the SNIC engine, ISA-L/TurboBench
 * on the host).
 */

#ifndef SNIC_WORKLOADS_COMPRESSION_HH
#define SNIC_WORKLOADS_COMPRESSION_HH

#include <memory>
#include <vector>

#include "workloads/workload.hh"

namespace snic::workloads {

/** Input corpus flavours. */
enum class CompInput
{
    App,  ///< binary application image (motif-repetitive)
    Txt,  ///< natural-language text
};

/** Direction: the engine serves both (Sec. 2.2 (A3)). */
enum class CompDir
{
    Compress,
    Decompress,
};

class Compression : public Workload
{
  public:
    explicit Compression(CompInput input,
                         CompDir dir = CompDir::Compress);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

    /** Per-job input block size (DPDK compress-perf style). */
    static constexpr std::size_t blockBytes = 65536;

    /** Measured compression ratio of the corpus (sanity output;
     *  valid after setup). */
    double measuredRatio() const { return _blocks->ratio; }

  private:
    /** What setup measures over the corpus blocks; shared by every
     *  instance set up with the same id and RNG state
     *  (setup_cache.hh). */
    struct Blocks
    {
        std::vector<alg::WorkCounters> work;
        std::vector<std::uint32_t> compressedSizes;
        double ratio = 0.0;
    };

    static Blocks measureBlocks(CompInput input, CompDir dir,
                                sim::Random &rng);

    CompInput _input;
    CompDir _dir;
    std::shared_ptr<const Blocks> _blocks;
};

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_COMPRESSION_HH
