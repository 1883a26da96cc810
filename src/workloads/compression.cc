/**
 * @file
 * Compression workload implementation: real Deflate runs at setup
 * measure the per-block work and ratio for each corpus flavour.
 */

#include "workloads/compression.hh"

#include "alg/deflate/deflate.hh"
#include "workloads/setup_cache.hh"

namespace snic::workloads {

namespace {

Spec
compSpec(CompInput input, CompDir dir)
{
    Spec s;
    s.id = std::string(input == CompInput::App ? "comp_app"
                                               : "comp_txt") +
           (dir == CompDir::Decompress ? "_dec" : "");
    s.family = "compression";
    s.configLabel =
        std::string(input == CompInput::App ? "Application3"
                                            : "Text1") +
        (dir == CompDir::Decompress ? " (inflate)" : "");
    s.stack = stack::StackKind::Dpdk;
    s.drive = Drive::LocalJobs;  // file blocks staged locally
    s.sizes = net::SizeDist::fixed(Compression::blockBytes);
    s.supportsAccel = true;
    s.accel = hw::AccelKind::Compression;
    s.snicCores = 2;  // Sec. 3.4: two SNIC cores stage input
    return s;
}

/** Application-image-like bytes: instruction motifs + symbols. */
std::vector<std::uint8_t>
makeAppCorpus(std::size_t size, sim::Random &rng)
{
    static const char *motifs[] = {
        "\x55\x48\x89\xe5\x48\x83\xec\x20",
        "\x48\x8b\x45\xf8\x48\x89\xc7\xe8",
        "\xc9\xc3\x0f\x1f\x40\x00",
        "__cxa_finalize", "GLIBC_2.17", ".text.unlikely",
        "\x00\x00\x00\x00\x00\x00",
    };
    std::vector<std::uint8_t> data;
    data.reserve(size);
    while (data.size() < size) {
        const char *m = motifs[rng.uniformInt(0, 6)];
        while (*m)
            data.push_back(static_cast<std::uint8_t>(*m++));
        if (rng.chance(0.25))
            data.push_back(static_cast<std::uint8_t>(rng.next()));
    }
    data.resize(size);
    return data;
}

/** English-like text: Zipf-weighted phrases (natural text repeats
 *  multi-word n-grams, which is what gives Deflate its long matches
 *  on prose). */
std::vector<std::uint8_t>
makeTxtCorpus(std::size_t size, sim::Random &rng)
{
    static const char *phrases[] = {
        "the speed of datacenter networks has increased rapidly",
        "functions processing network packets",
        "a rapidly increasing portion of the datacenter tax",
        "the industry has developed various smart network cards",
        "energy efficiency of a server",
        "maximum throughput and tail latency",
        "the total cost of ownership",
        "under service level objective constraints",
        "it was the best of times, it was the worst of times",
        "to be, or not to be, that is the question",
        "however, in contrast,", "on the other hand,",
        "for example,", "as a result,", "in this paper,"};
    static const char *words[] = {
        "the", "of", "and", "to", "in", "that", "it", "was", "for",
        "network", "server", "packet", "energy", "system", "which",
        "measurement", "latency", "throughput", "function", "with",
        "performance", "hardware", "software", "platform", "cores"};
    sim::ZipfSampler phrase_dist(std::size(phrases), 0.8);
    sim::ZipfSampler word_dist(std::size(words), 0.9);
    std::vector<std::uint8_t> data;
    data.reserve(size);
    while (data.size() < size) {
        const char *w = rng.chance(0.28)
                            ? phrases[phrase_dist.sample(rng)]
                            : words[word_dist.sample(rng)];
        while (*w)
            data.push_back(static_cast<std::uint8_t>(*w++));
        data.push_back(rng.chance(0.12) ? '.' : ' ');
    }
    data.resize(size);
    return data;
}

} // anonymous namespace

Compression::Compression(CompInput input, CompDir dir)
    : Workload(compSpec(input, dir)), _input(input), _dir(dir)
{
}

void
Compression::setup(sim::Random &rng)
{
    _blocks = cachedSetup<Blocks>(id(), rng, [this](sim::Random &r) {
        return measureBlocks(_input, _dir, r);
    });
}

Compression::Blocks
Compression::measureBlocks(CompInput input, CompDir dir,
                           sim::Random &rng)
{
    const std::size_t blocks = 6;
    const auto corpus =
        input == CompInput::App
            ? makeAppCorpus(blocks * blockBytes, rng)
            : makeTxtCorpus(blocks * blockBytes, rng);

    // Two codecs: level 9 gives the paper's ratio; the CPU *work*
    // profile is measured at a greedy effort (level 2) because the
    // host runs ISA-L, whose AVX kernels trade deep chain search for
    // speed (Sec. 3.4). The SNIC engine compresses at level-9 effort
    // in hardware either way.
    const alg::deflate::Deflate ratio_codec(9);
    const alg::deflate::Deflate work_codec(2);
    Blocks out;
    std::size_t in_total = 0, out_total = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        std::vector<std::uint8_t> block(
            corpus.begin() + static_cast<long>(b * blockBytes),
            corpus.begin() + static_cast<long>((b + 1) * blockBytes));
        alg::WorkCounters ratio_work;
        const auto compressed = ratio_codec.compress(block, ratio_work);
        alg::WorkCounters w;
        if (dir == CompDir::Compress) {
            work_codec.compress(block, w);
        } else {
            // Decompression work is measured on the real inflate of
            // the level-9 stream (inflate effort does not depend on
            // the compressor's search depth).
            ratio_codec.decompress(compressed, w);
        }
        w.messages = 1;
        out.work.push_back(w);
        out.compressedSizes.push_back(
            static_cast<std::uint32_t>(compressed.size()));
        in_total += block.size();
        out_total += compressed.size();
    }
    out.ratio = alg::deflate::Deflate::ratio(in_total, out_total);
    return out;
}

RequestPlan
Compression::plan(std::uint32_t request_bytes, hw::Platform platform,
                  sim::Random &rng)
{
    (void)request_bytes;
    RequestPlan p;
    const std::size_t idx = static_cast<std::size_t>(
        rng.uniformInt(0, _blocks->work.size() - 1));
    if (platform == hw::Platform::SnicAccel) {
        // Staging: read the block into a DPDK buffer and submit. The
        // engine streams the *input* side of the job either way.
        p.cpuWork.branchyOps = 300;
        p.cpuWork.streamBytes = blockBytes / 8;  // descriptor setup
        p.accelWork.streamBytes =
            _dir == CompDir::Compress ? blockBytes
                                      : _blocks->compressedSizes[idx];
        p.accelWork.messages = 1;
    } else {
        p.cpuWork = _blocks->work[idx];
        if (platform == hw::Platform::HostCpu) {
            // The host runs ISA-L: AVX match kernels process many
            // candidates per step and skip the literal-by-literal
            // bookkeeping of scalar Deflate. The factor is calibrated
            // so the engine's advantage lands at the paper's 3.5x
            // (KO2); see EXPERIMENTS.md.
            constexpr std::uint64_t isal = 5;
            constexpr std::uint64_t isal_rem = 2;  // ~5.4x
            p.cpuWork.branchyOps =
                p.cpuWork.branchyOps * isal_rem / (isal * isal_rem + 1);
            p.cpuWork.streamBytes =
                p.cpuWork.streamBytes * isal_rem / (isal * isal_rem + 1);
            p.cpuWork.randomTouches =
                p.cpuWork.randomTouches * isal_rem /
                (isal * isal_rem + 1);
            p.cpuWork.arithOps =
                p.cpuWork.arithOps * isal_rem / (isal * isal_rem + 1);
        }
    }
    p.responseBytes = _dir == CompDir::Compress
                          ? _blocks->compressedSizes[idx]
                          : static_cast<std::uint32_t>(blockBytes);
    return p;
}

} // namespace snic::workloads
