/**
 * @file
 * Pass bookkeeping: digests, operation outcomes, layer scopes.
 */

#include "perfbench.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <exception>

namespace perfbench {

double
wallSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

Digest &
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        _h ^= (v >> (8 * i)) & 0xff;
        _h *= 1099511628211ull;
    }
    return *this;
}

Digest &
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(const std::string &s)
{
    for (const char c : s) {
        _h ^= static_cast<unsigned char>(c);
        _h *= 1099511628211ull;
    }
    return add(static_cast<std::uint64_t>(s.size()));
}

void
Pass::op(const std::string &id,
         const std::function<void(OpResult &)> &body)
{
    OpResult r;
    r.id = id;
    _op = id;
    {
        Scope s(*this, "op");
        try {
            body(r);
        } catch (const std::exception &e) {
            r.error = std::string("exception: ") + e.what();
        } catch (...) {
            r.error = "exception";
        }
    }
    _op.clear();
    ops.push_back(std::move(r));
}

void
Pass::peak(const std::string &name, double v)
{
    double &p = peaks[name];
    p = std::max(p, v);
}

void
Pass::noteBuild(const std::string &id, std::uint64_t seed)
{
    if (!_built.emplace(id, seed).second)
        count("workloads.repeat_builds", 1);
}

Scope::Scope(Pass &pass, const char *layer)
    : _pass(pass), _layer(layer), _start(wallSec())
{
    if (!_pass.traced)
        return;
    Span s;
    s.name = layer;
    s.op = _pass._op;
    s.start = _start;
    s.parent = _pass._open.empty() ? -1 : _pass._open.back();
    _span = static_cast<int>(_pass.spans.size());
    _pass.spans.push_back(std::move(s));
    _pass._open.push_back(_span);
}

Scope::~Scope()
{
    const double end = wallSec();
    _pass.layerSeconds[_layer] += end - _start;
    _pass.layerCalls[_layer] += 1;
    if (_span >= 0) {
        _pass.spans[static_cast<std::size_t>(_span)].end = end;
        _pass._open.pop_back();
    }
}

std::string
conservation(const std::vector<snic::core::StageSnapshot> &stages)
{
    for (const snic::core::StageSnapshot &s : stages) {
        const std::uint64_t out =
            s.forwarded + s.dropped + s.droppedStale + s.inFlight;
        if (s.accepted != out) {
            return "stage " + s.name + ": accepted " +
                   std::to_string(s.accepted) +
                   " != forwarded+dropped+droppedStale+inFlight " +
                   std::to_string(out);
        }
    }
    return {};
}

std::string
conservation(const snic::core::Measurement &m)
{
    // Stage stats cover the whole measure call (warm-up and window),
    // while completed/generated cover the window. A response served
    // during warm-up and delivered inside the window counts as
    // completed but not as generated, so the bound on completions is
    // what the chain admitted since the call began.
    if (m.stageStats.empty())
        return "measurement has no stage stats";
    const std::uint64_t admitted = m.stageStats.front().accepted;
    const std::uint64_t completed = m.completed + m.floodCompleted;
    if (completed > admitted || m.generated > admitted) {
        return "completed " + std::to_string(completed) +
               " or generated " + std::to_string(m.generated) +
               " exceeds admitted " + std::to_string(admitted);
    }
    return conservation(m.stageStats);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

IsoResult
summarise(std::vector<double> samples, std::size_t calls)
{
    IsoResult r;
    r.calls = calls;
    if (samples.empty())
        return r;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    auto at = [&](double q) {
        const auto i = static_cast<std::size_t>(
            q * static_cast<double>(n - 1) + 0.5);
        return samples[std::min(i, n - 1)];
    };
    r.median = median(samples);
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        if (static_cast<double>(n) * (1.0 - q) >= 10.0) {
            r.tailQ = q;
            r.tail = at(q);
        }
    }
    return r;
}

} // namespace perfbench
