/**
 * @file
 * perfbench — the repository's end-to-end benchmark.
 *
 * One invocation runs one named workload, in one process on one
 * thread, as a series of identical passes. Every pass rebuilds its
 * simulations from the seed, so every pass must reproduce the same
 * per-operation digests; at the pinned seed those digests must also
 * equal the values recorded in pins.cc.
 *
 * Calls into the simulator are wrapped in Scopes named after the
 * layer they enter. Untraced runs only accumulate the seconds per
 * layer (setup_s is the core.assemble total); traced runs also keep
 * every Scope as a span for the Chrome trace and the self-time table.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.hh"

namespace perfbench {

/** The seed whose digests are pinned: the repository's default
 *  simulation seed, which the paper drivers under bench/ use. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Monotonic host seconds. */
double wallSec();
/** Process CPU seconds (all threads). */
double cpuSec();

/** FNV-1a over the canonical bytes of an operation's statistics.
 *  Doubles enter as their bit patterns, so the digest is bit-exact. */
class Digest
{
  public:
    Digest &add(std::uint64_t v);
    Digest &add(double v);
    Digest &add(const std::string &s);
    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 14695981039346656037ull;
};

/** One timed call into a layer (traced runs keep these). */
struct Span
{
    std::string name;  ///< layer call, e.g. "core.assemble"
    std::string op;    ///< the operation it served
    double start = 0.0;
    double end = 0.0;
    int parent = -1;   ///< index into Pass::spans, -1 at the root
};

/** One operation's outcome: its digest, or why it failed. */
struct OpResult
{
    std::string id;
    std::uint64_t digest = 0;
    std::string error;  ///< failed invariant or exception text
};

/** Everything one pass of a workload measured. */
class Pass
{
  public:
    explicit Pass(bool traced) : traced(traced) {}

    /**
     * Run one operation. @p body fills the digest and may set an
     * error; an exception it throws is recorded as the error.
     */
    void op(const std::string &id,
            const std::function<void(OpResult &)> &body);

    /** Sum @p v into count metric @p name. */
    void count(const std::string &name, double v) { counts[name] += v; }
    /** Keep the maximum of @p v under @p name. */
    void peak(const std::string &name, double v);

    /** Count a Testbed-level dataset build of (@p id, @p seed); a
     *  pair already built earlier in the pass is a repeat build. */
    void noteBuild(const std::string &id, std::uint64_t seed);

    const bool traced;
    std::vector<Span> spans;
    std::map<std::string, double> layerSeconds;
    std::map<std::string, double> layerCalls;
    std::map<std::string, double> counts;
    std::map<std::string, double> peaks;
    /** Per-call host ns of the benchmark's XDP verdict hook (traced
     *  passes only: the timing is tracing cost). */
    std::vector<double> hookNs;
    std::vector<OpResult> ops;
    /** Lines printed once, from the first pass (band checks). */
    std::vector<std::string> notes;
    double wallS = 0.0;
    double cpuS = 0.0;

  private:
    friend class Scope;
    std::vector<int> _open;
    std::string _op;
    std::set<std::pair<std::string, std::uint64_t>> _built;
};

/** Times one call into @p layer for as long as it lives. */
class Scope
{
  public:
    Scope(Pass &pass, const char *layer);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Pass &_pass;
    const char *_layer;
    double _start;
    int _span = -1;
};

/** What a workload pass runs at. */
struct Params
{
    std::uint64_t seed = kDefaultSeed;
    /** Self-test length: same code paths, a fraction of the work. */
    bool smoke = false;
};

/** A named workload: one pass of its fixed simulated work. */
struct WorkloadDef
{
    const char *name;
    void (*run)(Pass &, const Params &);
};

const std::vector<WorkloadDef> &workloadDefs();

/** The Fig-4 lineup rows with each row's SNIC side: the SNIC CPU for
 *  software-only functions, the accelerator for the others. */
std::vector<std::pair<std::string, snic::hw::Platform>> fig4Rows();

/** Pinned digest of @p op in @p workload at kDefaultSeed, full
 *  length (0 when none is pinned). */
std::uint64_t pinnedDigest(const std::string &workload,
                           const std::string &op);

/** Stage flow conservation, and completions bounded by the requests
 *  the chain admitted; the empty string when they hold. */
std::string conservation(const snic::core::Measurement &m);
std::string conservation(
    const std::vector<snic::core::StageSnapshot> &stages);

/** An isolated probe: per-call samples of one layer's public API. */
struct IsoResult
{
    double median = 0.0;
    /** Highest ladder percentile with >= 10 samples beyond it. */
    double tailQ = 0.0;
    double tail = 0.0;
    std::size_t calls = 0;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Summarise per-call samples as an IsoResult. */
IsoResult summarise(std::vector<double> samples, std::size_t calls);

/** Every isolated probe, keyed by its per-layer metric name. */
std::map<std::string, IsoResult> runIsoProbes(std::uint64_t seed);

/** net.tor_probe_share: the host-time share of a 32-member
 *  least_queue rack window that round_robin, on the same traffic,
 *  does not spend. */
double torProbeShare(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
