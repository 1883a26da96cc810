/**
 * @file
 * Workload registry implementation.
 */

#include "workloads/registry.hh"

#include "sim/logging.hh"
#include "workloads/bm25.hh"
#include "workloads/compression.hh"
#include "workloads/crypto.hh"
#include "workloads/fio.hh"
#include "workloads/mica.hh"
#include "workloads/micro_dpdk.hh"
#include "workloads/micro_rdma.hh"
#include "workloads/micro_udp.hh"
#include "workloads/nat.hh"
#include "workloads/nicache.hh"
#include "workloads/ovs.hh"
#include "workloads/redis.hh"
#include "workloads/rem.hh"
#include "workloads/setup_cache.hh"
#include "workloads/snort.hh"

namespace snic::workloads {

WorkloadPtr
makeWorkload(const std::string &id)
{
    using alg::regex::RuleSetId;

    // Microbenchmarks (Sec. 3.3).
    if (id == "micro_udp_64")
        return std::make_unique<MicroUdp>(64);
    if (id == "micro_udp_1024")
        return std::make_unique<MicroUdp>(1024);
    if (id == "micro_dpdk_64")
        return std::make_unique<MicroDpdk>(64);
    if (id == "micro_dpdk_1024")
        return std::make_unique<MicroDpdk>(1024);
    if (id == "micro_rdma_read_1024")
        return std::make_unique<MicroRdma>(RdmaVerb::Read, 1024);
    if (id == "micro_rdma_write_1024")
        return std::make_unique<MicroRdma>(RdmaVerb::Write, 1024);
    if (id == "micro_rdma_send_1024")
        return std::make_unique<MicroRdma>(RdmaVerb::Send, 1024);
    if (id == "micro_rdma_read_64")
        return std::make_unique<MicroRdma>(RdmaVerb::Read, 64);
    if (id == "micro_rdma_write_64")
        return std::make_unique<MicroRdma>(RdmaVerb::Write, 64);
    if (id == "micro_rdma_send_64")
        return std::make_unique<MicroRdma>(RdmaVerb::Send, 64);

    // TCP/UDP benchmarks (Table 3).
    if (id == "redis_a")
        return std::make_unique<Redis>(YcsbMix::A);
    if (id == "redis_b")
        return std::make_unique<Redis>(YcsbMix::B);
    if (id == "redis_c")
        return std::make_unique<Redis>(YcsbMix::C);
    if (id == "snort_img")
        return std::make_unique<Snort>(RuleSetId::FileImage);
    if (id == "snort_fla")
        return std::make_unique<Snort>(RuleSetId::FileFlash);
    if (id == "snort_exe")
        return std::make_unique<Snort>(RuleSetId::FileExecutable);
    if (id == "nat_10k")
        return std::make_unique<Nat>(10000);
    if (id == "nat_1m")
        return std::make_unique<Nat>(1000000);
    if (id == "bm25_100")
        return std::make_unique<Bm25>(100);
    if (id == "bm25_1k")
        return std::make_unique<Bm25>(1000);
    if (id == "crypto_aes")
        return std::make_unique<Crypto>(CryptoAlg::Aes);
    if (id == "crypto_rsa")
        return std::make_unique<Crypto>(CryptoAlg::Rsa);
    if (id == "crypto_sha1")
        return std::make_unique<Crypto>(CryptoAlg::Sha1);

    // DPDK benchmarks.
    if (id == "rem_img")
        return std::make_unique<Rem>(RuleSetId::FileImage,
                                     RemTraffic::PcapMix);
    if (id == "rem_fla")
        return std::make_unique<Rem>(RuleSetId::FileFlash,
                                     RemTraffic::PcapMix);
    if (id == "rem_exe")
        return std::make_unique<Rem>(RuleSetId::FileExecutable,
                                     RemTraffic::PcapMix);
    if (id == "rem_img_mtu")
        return std::make_unique<Rem>(RuleSetId::FileImage,
                                     RemTraffic::Mtu);
    if (id == "rem_fla_mtu")
        return std::make_unique<Rem>(RuleSetId::FileFlash,
                                     RemTraffic::Mtu);
    if (id == "rem_exe_mtu")
        return std::make_unique<Rem>(RuleSetId::FileExecutable,
                                     RemTraffic::Mtu);
    if (id == "comp_app")
        return std::make_unique<Compression>(CompInput::App);
    if (id == "comp_txt")
        return std::make_unique<Compression>(CompInput::Txt);
    if (id == "comp_app_dec")
        return std::make_unique<Compression>(CompInput::App,
                                             CompDir::Decompress);
    if (id == "comp_txt_dec")
        return std::make_unique<Compression>(CompInput::Txt,
                                             CompDir::Decompress);
    if (id == "ovs_10")
        return std::make_unique<Ovs>(0.10);
    if (id == "ovs_100")
        return std::make_unique<Ovs>(1.00);

    // XDP tier (not part of the Fig. 4 lineup; driven by the
    // xdp_acl / nicache benches and tests).
    if (id == "nicache_get")
        return std::make_unique<NicacheGet>();
    if (id == "xdp_echo_64")
        return std::make_unique<XdpEcho>(64);
    if (id == "xdp_echo_1024")
        return std::make_unique<XdpEcho>(1024);

    // RDMA benchmarks.
    if (id == "mica_b4")
        return std::make_unique<Mica>(4);
    if (id == "mica_b32")
        return std::make_unique<Mica>(32);
    if (id == "fio_read")
        return std::make_unique<Fio>(FioOp::Read);
    if (id == "fio_write")
        return std::make_unique<Fio>(FioOp::Write);

    sim::fatal("makeWorkload: unknown workload id '%s'", id.c_str());
}

Fig4Lineup
fig4Lineup()
{
    Fig4Lineup l;
    l.softwareOnly = {
        "micro_udp_64", "micro_udp_1024",
        "micro_dpdk_64", "micro_dpdk_1024",
        "micro_rdma_read_1024", "micro_rdma_write_1024",
        "micro_rdma_send_1024",
        "redis_a", "redis_b", "redis_c",
        "snort_img", "snort_fla", "snort_exe",
        "nat_10k", "nat_1m",
        "bm25_100", "bm25_1k",
        "mica_b4", "mica_b32",
        "fio_read", "fio_write",
    };
    l.hardwareAccelerated = {
        "crypto_aes", "crypto_rsa", "crypto_sha1",
        "rem_img", "rem_fla", "rem_exe",
        "comp_app", "comp_txt",
        "ovs_10", "ovs_100",
    };
    return l;
}

std::vector<std::string>
allWorkloadIds()
{
    const Fig4Lineup l = fig4Lineup();
    std::vector<std::string> ids = l.softwareOnly;
    ids.insert(ids.end(), l.hardwareAccelerated.begin(),
               l.hardwareAccelerated.end());
    ids.push_back("rem_img_mtu");
    ids.push_back("rem_fla_mtu");
    ids.push_back("rem_exe_mtu");
    ids.push_back("comp_app_dec");
    ids.push_back("comp_txt_dec");
    // Fig. 4 plots only the 1 KB RDMA numbers ("the trends ... are
    // similar"); the 64 B configurations exist for micro_stacks.
    ids.push_back("micro_rdma_read_64");
    ids.push_back("micro_rdma_write_64");
    ids.push_back("micro_rdma_send_64");
    return ids;
}

double
FunctionProfile::cpuNsAt(hw::Platform where) const
{
    switch (where) {
      case hw::Platform::HostCpu:
        return hostCpuNs;
      case hw::Platform::SnicCpu:
        return snicCpuNs;
      case hw::Platform::SnicAccel:
        return accelStagingNs;
    }
    return 0.0;
}

namespace {

/** functionProfile's sampling, drawing every request from @p rng. */
FunctionProfile
sampleProfile(const std::string &id, std::uint64_t seed, int samples,
              sim::Random &rng)
{
    // A scratch simulation prices the sampled plans; nothing is
    // scheduled, so this costs one ServerModel construction.
    sim::Simulation sim(seed);
    hw::ServerModel server(sim);
    WorkloadPtr wl = makeWorkload(id);
    wl->setup(rng);

    const Spec &spec = wl->spec();
    FunctionProfile p;
    p.id = id;
    p.supportsHost = spec.supportsHost;
    p.supportsSnicCpu = spec.supportsSnicCpu;
    p.supportsAccel = spec.supportsAccel;
    p.accel = spec.accel;
    p.drive = spec.drive;

    double resp_samples = 0.0;
    for (int i = 0; i < samples; ++i) {
        const auto bytes = spec.sizes.sample(rng);
        p.meanRequestBytes += bytes;
        // One plan per supported platform; all draw from the same
        // stream, which is fine — the profile is a mean, not a
        // paired comparison.
        if (spec.supportsHost) {
            const auto plan =
                wl->plan(bytes, hw::Platform::HostCpu, rng);
            p.hostCpuNs += server.hostCpu().serviceNs(plan.cpuWork);
            p.meanResponseBytes += plan.responseBytes;
            resp_samples += 1.0;
        }
        if (spec.supportsSnicCpu) {
            const auto plan =
                wl->plan(bytes, hw::Platform::SnicCpu, rng);
            p.snicCpuNs += server.snicCpu().serviceNs(plan.cpuWork);
            if (!spec.supportsHost) {
                p.meanResponseBytes += plan.responseBytes;
                resp_samples += 1.0;
            }
        }
        if (spec.supportsAccel) {
            const auto plan =
                wl->plan(bytes, hw::Platform::SnicAccel, rng);
            p.accelStagingNs +=
                server.snicCpu().serviceNs(plan.cpuWork);
            p.engineNs +=
                server.accel(spec.accel).serviceNs(plan.accelWork);
            if (!spec.supportsHost && !spec.supportsSnicCpu) {
                p.meanResponseBytes += plan.responseBytes;
                resp_samples += 1.0;
            }
        }
    }
    const double n = static_cast<double>(samples);
    p.meanRequestBytes /= n;
    if (resp_samples > 0.0)
        p.meanResponseBytes /= resp_samples;
    p.hostCpuNs /= n;
    p.snicCpuNs /= n;
    p.accelStagingNs /= n;
    p.engineNs /= n;
    return p;
}

} // anonymous namespace

FunctionProfile
functionProfile(const std::string &id, std::uint64_t seed, int samples)
{
    // Prices are pure functions of the sampled work, so the seed
    // reaches the profile only through this generator; caching on
    // its state keeps the profile a pure function of the arguments.
    sim::Random rng(seed + 4242);
    return *cachedSetup<FunctionProfile>(
        id + " x" + std::to_string(samples), rng,
        [&](sim::Random &r) { return sampleProfile(id, seed, samples, r); });
}

} // namespace snic::workloads
