/**
 * @file
 * perfbench driver: runs one workload for a time budget as repeated
 * passes, checks every operation's digest, and prints the metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file PATH]
 *   perfbench --self-test
 *   perfbench --print-pins
 *
 * The last line of a measuring run is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Noise diagnostics and the Fig-4 band check are printed
 * above it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include "perfbench.hh"
#include "sim/logging.hh"

#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __VERSION__
#else
#define PERFBENCH_COMPILER "GCC " __VERSION__
#endif

namespace perfbench {

namespace {

/** Passes a measuring run makes at least: the median needs three. */
constexpr int kMinPasses = 3;

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloadDefs())
        if (name == w.name)
            return &w;
    return nullptr;
}

Pass
runPass(const WorkloadDef &w, const Params &prm, bool traced)
{
    Pass p(traced);
    const double w0 = wallSec(), c0 = cpuSec();
    {
        Scope s(p, "pass");
        w.run(p, prm);
    }
    p.wallS = wallSec() - w0;
    p.cpuS = cpuSec() - c0;
    return p;
}

/** The pinned digest of an operation (empty: no pin check). */
using PinFn = std::function<std::uint64_t(const std::string &op)>;

struct Verdict
{
    std::size_t attempted = 0;
    std::vector<std::string> failures;
};

/**
 * Every operation of every pass is one attempt. It fails when its
 * invariants failed, when its digest differs from the first pass's,
 * or, with @p pin set, when its digest differs from the pinned one.
 */
Verdict
verify(const std::vector<const Pass *> &passes, const PinFn &pin)
{
    Verdict v;
    const Pass &first = *passes.front();
    for (const Pass *p : passes) {
        for (std::size_t k = 0; k < p->ops.size(); ++k) {
            const OpResult &op = p->ops[k];
            ++v.attempted;
            std::string why = op.error;
            if (why.empty() &&
                (k >= first.ops.size() || first.ops[k].id != op.id))
                why = "operation list differs from the first pass";
            else if (why.empty() && op.digest != first.ops[k].digest)
                why = "digest differs from the first pass";
            else if (why.empty() && pin) {
                const std::uint64_t want = pin(op.id);
                if (want != op.digest) {
                    char buf[96];
                    std::snprintf(buf, sizeof buf,
                                  "digest %016llx, pinned %016llx",
                                  static_cast<unsigned long long>(
                                      op.digest),
                                  static_cast<unsigned long long>(want));
                    why = buf;
                }
            }
            if (!why.empty())
                v.failures.push_back(op.id + ": " + why);
        }
    }
    return v;
}

// --- Noise diagnostics ------------------------------------------------

/** Cumulative steal ticks (USER_HZ) from /proc/stat, -1 if absent. */
long long
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    long long f[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return -1;
    for (long long &x : f)
        if (!(in >> x))
            return -1;
    return f[7];
}

double
loadAvg()
{
    std::ifstream in("/proc/loadavg");
    double l = -1.0;
    in >> l;
    return l;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
measurableBuild()
{
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    return false;
#else
    return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") == nullptr;
#endif
}

// --- Output ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const Verdict &v, const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += v.failures.empty() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(v.attempted);
    s += ", \"failed\": " + std::to_string(v.failures.size());
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        s += buf;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

void
printFailures(const Verdict &v)
{
    for (const std::string &f : v.failures)
        std::printf("FAILED %s\n", f.c_str());
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o;
}

/** Chrome trace-event JSON (Perfetto, chrome://tracing). */
void
writeChromeTrace(const std::string &path,
                 const std::vector<const Pass *> &traced)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    const double t0 = traced.front()->spans.front().start;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (std::size_t k = 0; k < traced.size(); ++k) {
        for (const Span &s : traced[k]->spans) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, "
                          "\"ts\": %.3f, \"dur\": %.3f",
                          k + 1, (s.start - t0) * 1e6,
                          (s.end - s.start) * 1e6);
            out << (first ? "" : ",\n") << "{\"name\": \""
                << jsonEscape(s.name) << "\", " << buf
                << ", \"args\": {\"op\": \"" << jsonEscape(s.op)
                << "\", \"parent\": " << s.parent << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
}

/** Layer self time: a span's duration minus what its children cover
 *  (single-threaded scopes nest, so children never overlap). */
std::map<std::string, double>
selfSeconds(const Pass &p)
{
    std::map<std::string, double> self;
    std::vector<double> child(p.spans.size(), 0.0);
    for (const Span &s : p.spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < p.spans.size(); ++i)
        self[p.spans[i].name] +=
            p.spans[i].end - p.spans[i].start - child[i];
    return self;
}

// --- Metrics ----------------------------------------------------------

std::vector<Metric>
endToEnd(const std::vector<const Pass *> &passes)
{
    std::vector<double> wall, setup, cpu;
    for (const Pass *p : passes) {
        wall.push_back(p->wallS);
        cpu.push_back(p->cpuS);
        const auto it = p->layerSeconds.find("core.assemble");
        setup.push_back(it == p->layerSeconds.end() ? 0.0 : it->second);
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"cpu_s", median(cpu), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

double
get(const std::map<std::string, double> &m, const std::string &k)
{
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
perLayer(const std::vector<const Pass *> &untraced,
         const std::vector<const Pass *> &traced,
         const std::map<std::string, IsoResult> &iso, double probe_share)
{
    // Times: medians over the traced passes. Counts: the first traced
    // pass (every pass simulates the same work).
    auto layer = [&](const char *name) {
        std::vector<double> v;
        for (const Pass *p : traced)
            v.push_back(get(p->layerSeconds, name));
        return median(v);
    };
    const Pass &t = *traced.front();
    auto c = [&](const char *k) { return get(t.counts, k); };
    auto pk = [&](const char *k) { return get(t.peaks, k); };
    auto isoMedian = [&](const char *k) { return iso.at(k).median; };

    const double capacity_s = layer("search.capacity");
    const double measure_s = layer("core.measure");
    const double fleet_s = layer("fleet.run");
    std::vector<double> tw, uw;
    for (const Pass *p : traced)
        tw.push_back(p->wallS);
    for (const Pass *p : untraced)
        uw.push_back(p->wallS);

    return {
        {"core.assemble_s", layer("core.assemble"), "s"},
        {"core.assemblies", get(t.layerCalls, "core.assemble"), "count"},
        {"workloads.setup_s", isoMedian("workloads.setup_s"), "s"},
        {"workloads.repeat_builds", c("workloads.repeat_builds"),
         "count"},
        {"workloads.plan_ns", isoMedian("workloads.plan_ns"), "ns"},
        {"search.capacity_s", capacity_s, "s"},
        {"search.windows", c("search.windows"), "count"},
        {"core.measure_s", measure_s, "s"},
        {"core.sim_req_per_s",
         ratio(c("measure.completed"), measure_s + fleet_s), "1/s"},
        {"sim.events", c("sim.events"), "count"},
        {"sim.events_per_req",
         ratio(c("measure.events"), c("measure.completed")), "ratio"},
        {"sim.host_ns_per_event",
         ratio((capacity_s + measure_s + fleet_s) * 1e9, c("sim.events")),
         "ns"},
        {"sim.sched_ns_per_event", isoMedian("sim.sched_ns_per_event"),
         "ns"},
        {"sim.pool_slots", pk("sim.pool_slots"), "count"},
        {"pipeline.stage_visits_per_req",
         ratio(c("pipeline.stage_visits"), c("pipeline.ingress_accepts")),
         "ratio"},
        {"pipeline.pool_slots", pk("pipeline.pool_slots"), "count"},
        {"pipeline.stale_drops", c("pipeline.stale_drops"), "count"},
        {"pipeline.stale_share",
         ratio(c("pipeline.stale_drops"), c("pipeline.ingress_accepts")),
         "ratio"},
        {"stats.record_ns", isoMedian("stats.record_ns"), "ns"},
        {"stats.merge_ns", isoMedian("stats.merge_ns"), "ns"},
        {"stats.reset_ns", isoMedian("stats.reset_ns"), "ns"},
        {"net.tor_pick_ns", isoMedian("net.tor_pick_ns"), "ns"},
        {"net.tor_pick_filtered_ns", isoMedian("net.tor_pick_filtered_ns"),
         "ns"},
        {"net.tor_probe_share", probe_share, "ratio"},
        {"fleet.run_s", fleet_s, "s"},
        {"fleet.bins", c("fleet.bins"), "count"},
        {"fleet.host_ms_per_bin", ratio(fleet_s * 1e3, c("fleet.bins")),
         "ms"},
        {"fleet.scale_events", c("fleet.scale_events"), "count"},
        {"fleet.asleep_share",
         ratio(c("fleet.asleep_ticks"), c("fleet.member_ticks")), "ratio"},
        {"advisor.search_s", layer("advisor.search"), "s"},
        {"advisor.enumerated", c("advisor.enumerated"), "count"},
        {"advisor.des_evaluated", c("advisor.des_evaluated"), "count"},
        {"advisor.des_yield",
         ratio(c("advisor.des_evaluated"), c("advisor.enumerated")),
         "ratio"},
        {"advisor.key_us", isoMedian("advisor.key_us"), "us"},
        {"balancer.run_s", layer("balancer.run"), "s"},
        {"xdp.hook_ns", median(t.hookNs), "ns"},
        {"xdp.hit_ratio",
         ratio(c("xdp.hits"), c("xdp.hits") + c("xdp.misses")), "ratio"},
        {"trace.overhead_s", median(tw) - median(uw), "s"},
    };
}

// --- Modes ------------------------------------------------------------

int
measureRun(const WorkloadDef &w, const Params &prm, double seconds,
           bool trace, const std::string &trace_file)
{
    if (!measurableBuild()) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a %s build with "
                     "flags '%s': build Release without sanitizers\n",
                     PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
        return 2;
    }
    const long long steal0 = stealTicks();
    const double load0 = loadAvg();
    const double t0 = wallSec();

    std::map<std::string, IsoResult> iso;
    double probe_share = 0.0;
    if (trace) {
        iso = runIsoProbes(prm.seed);
        probe_share = torProbeShare(prm.seed);
    }

    // Untraced runs: passes until the budget is spent (at least
    // kMinPasses). Traced runs alternate an untraced and a traced
    // pass, so trace.overhead_s pairs passes from the same period.
    std::vector<Pass> passes;
    std::vector<double> lengths;
    for (;;) {
        passes.push_back(runPass(w, prm, false));
        lengths.push_back(passes.back().wallS);
        if (trace) {
            passes.push_back(runPass(w, prm, true));
            lengths.back() += passes.back().wallS;
        }
        const double spent = wallSec() - t0;
        const bool enough =
            trace || static_cast<int>(passes.size()) >= kMinPasses;
        if (enough && spent + median(lengths) > seconds)
            break;
    }
    const double load1 = loadAvg();
    const long long steal1 = stealTicks();

    std::vector<const Pass *> all, untraced, traced;
    for (const Pass &p : passes) {
        all.push_back(&p);
        (p.traced ? traced : untraced).push_back(&p);
    }
    const bool pinned = prm.seed == kDefaultSeed;
    PinFn pin;
    if (pinned)
        pin = [&w](const std::string &op) { return pinnedDigest(w.name, op); };
    const Verdict v = verify(all, pin);

    for (const std::string &note : passes.front().notes)
        std::printf("%s\n", note.c_str());
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        std::printf("pass %2zu %s wall %.4f s  setup %.4f s  cpu %.4f s  "
                    "ops %zu\n",
                    i, p.traced ? "traced  " : "untraced", p.wallS,
                    get(p.layerSeconds, "core.assemble"), p.cpuS,
                    p.ops.size());
    }
    printFailures(v);

    std::vector<Metric> metrics = endToEnd(untraced);
    std::printf("diag workload=%s seed=%llu passes=%zu cpu_over_wall=%.4f "
                "steal_ticks=%lld loadavg_start=%.2f loadavg_end=%.2f "
                "pinned_check=%s\n",
                w.name, static_cast<unsigned long long>(prm.seed),
                passes.size(), ratio(metrics[2].value, metrics[0].value),
                steal0 >= 0 && steal1 >= 0 ? steal1 - steal0 : -1, load0,
                load1, pinned ? "yes" : "no (invariants only)");
    std::printf("diag compiler=\"%s\" build_type=%s flags=\"%s\"\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS);
    for (const Metric &m : metrics)
        std::printf("metric %-24s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit);

    if (trace) {
        for (const auto &[name, r] : iso) {
            std::printf("iso %-26s median %12.4f  p%g %12.4f  calls %zu\n",
                        name.c_str(), r.median, r.tailQ * 100.0, r.tail,
                        r.calls);
        }
        const Pass &t = *traced.front();
        const IsoResult hook = summarise(t.hookNs, t.hookNs.size());
        if (hook.calls > 0)
            std::printf("inline %-23s median %12.4f  p%g %12.4f  "
                        "calls %zu\n",
                        "xdp.hook_ns", hook.median, hook.tailQ * 100.0,
                        hook.tail, hook.calls);
        for (const auto &[name, s] : selfSeconds(t))
            std::printf("self %-20s %10.4f s  calls %.0f\n", name.c_str(),
                        s, get(t.layerCalls, name));
        if (!trace_file.empty()) {
            writeChromeTrace(trace_file, traced);
            std::printf("trace written to %s\n", trace_file.c_str());
        }
        metrics = perLayer(untraced, traced, iso, probe_share);
        for (const Metric &m : metrics)
            std::printf("layer %-30s %16.6f %s\n", m.name.c_str(),
                        m.value, m.unit);
    }
    printResult(v, metrics);
    return 0;
}

/** Print pins.cc entries for every workload at the pinned seed. */
int
printPins()
{
    for (const WorkloadDef &w : workloadDefs()) {
        const Pass p = runPass(w, Params{}, false);
        for (const OpResult &op : p.ops) {
            if (!op.error.empty()) {
                std::fprintf(stderr, "%s %s: %s\n", w.name, op.id.c_str(),
                             op.error.c_str());
                return 1;
            }
            std::printf("    {\"%s\", \"%s\", 0x%016llxull},\n", w.name,
                        op.id.c_str(),
                        static_cast<unsigned long long>(op.digest));
        }
    }
    return 0;
}

/**
 * Self-tests at smoke length: every workload repeats its digests in
 * one process, a second seed passes the invariants with different
 * digests, and a wrong pin fails exactly its operation.
 */
int
selfTest()
{
    int bad = 0;
    auto expect = [&](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
        bad += ok ? 0 : 1;
    };
    for (const WorkloadDef &w : workloadDefs()) {
        const std::string name = w.name;
        const Params smoke{kDefaultSeed, true};
        const Pass a = runPass(w, smoke, false);
        const Pass b = runPass(w, smoke, true);
        const Verdict same = verify({&a, &b}, {});
        printFailures(same);
        expect(same.failures.empty() && !a.ops.empty(),
               name + ": an untraced and a traced smoke pass give "
                      "identical digests");

        const Params other{kDefaultSeed + 1, true};
        const Pass c = runPass(w, other, false);
        const Verdict inv = verify({&c}, {});
        printFailures(inv);
        bool moved = false;
        for (std::size_t k = 0; k < c.ops.size() && k < a.ops.size(); ++k)
            moved = moved || c.ops[k].digest != a.ops[k].digest;
        expect(inv.failures.empty(),
               name + ": seed 2 passes the invariants");
        expect(moved, name + ": seed 2 simulates other traffic");

        // Right pins for every operation but the last.
        std::map<std::string, std::uint64_t> pins;
        for (const OpResult &op : a.ops)
            pins[op.id] = op.digest;
        const std::string wrong = a.ops.back().id;
        pins[wrong] ^= 1;
        const Verdict pinned = verify(
            {&a}, [&pins](const std::string &op) { return pins.at(op); });
        expect(pinned.attempted == a.ops.size() &&
                   pinned.failures.size() == 1 &&
                   pinned.failures.front().rfind(wrong + ":", 0) == 0,
               name + ": a wrong pin fails exactly its operation");
    }
    std::printf("%s\n", bad ? "self-test FAILED" : "self-test passed");
    return bad ? 1 : 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-file PATH]\n"
                 "       perfbench --self-test | --print-pins\n"
                 "workloads:");
    for (const WorkloadDef &w : workloadDefs())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // anonymous namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    snic::sim::setLogLevel(snic::sim::LogLevel::Quiet);

    std::string workload, trace_file;
    Params prm;
    double seconds = 10.0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--self-test")
            return selfTest();
        if (arg == "--print-pins")
            return printPins();
        if (!val)
            return usage();
        ++i;
        char *end = nullptr;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            prm.seed = std::strtoull(val, &end, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val, &end);
        else if (arg == "--trace")
            trace = std::strcmp(val, "1") == 0;
        else if (arg == "--trace-file")
            trace_file = val;
        else
            return usage();
        if (end && *end)
            return usage();
    }
    const WorkloadDef *w = findWorkload(workload);
    if (!w || seconds <= 0.0)
        return usage();
    return measureRun(*w, prm, seconds, trace, trace_file);
}
