/**
 * @file
 * Digests of every operation at the pinned seed (kDefaultSeed, full
 * length), recorded from the simulator this benchmark was added on.
 * A change that moves a simulated number moves its digest; such a
 * change regenerates this table with `perfbench --print-pins` and
 * names the operations that moved.
 */

#include <cstring>

#include "perfbench.hh"

namespace perfbench {

namespace {

struct Pin
{
    const char *workload;
    const char *op;
    std::uint64_t digest;
};

const Pin kPins[] = {
    {"testbed_sweep", "cell/micro_udp_64/host", 0x399b75606b4b9130ull},
    {"testbed_sweep", "cell/micro_udp_64/snic_cpu", 0xc174cc01c5fca7eaull},
    {"testbed_sweep", "cell/micro_udp_1024/host", 0x7610dd5e5dc11792ull},
    {"testbed_sweep", "cell/micro_udp_1024/snic_cpu", 0x6f9800e4ffbe3f04ull},
    {"testbed_sweep", "cell/micro_dpdk_64/host", 0x67c8d5f30fae1226ull},
    {"testbed_sweep", "cell/micro_dpdk_64/snic_cpu", 0x8e2439f40ebb0166ull},
    {"testbed_sweep", "cell/micro_dpdk_1024/host", 0xf0c748ff77c0583full},
    {"testbed_sweep", "cell/micro_dpdk_1024/snic_cpu", 0x108bc52d1d63223full},
    {"testbed_sweep", "cell/micro_rdma_read_1024/host", 0x7d1c46527e8400dbull},
    {"testbed_sweep", "cell/micro_rdma_read_1024/snic_cpu", 0xd356b59382c06d4aull},
    {"testbed_sweep", "cell/micro_rdma_write_1024/host", 0xda6bf156807a7e14ull},
    {"testbed_sweep", "cell/micro_rdma_write_1024/snic_cpu", 0x5eaf46f0fb93aca8ull},
    {"testbed_sweep", "cell/micro_rdma_send_1024/host", 0x168ae07dae69213cull},
    {"testbed_sweep", "cell/micro_rdma_send_1024/snic_cpu", 0xde661b57bd00e2d1ull},
    {"testbed_sweep", "cell/redis_a/host", 0x56b0759d59b49090ull},
    {"testbed_sweep", "cell/redis_a/snic_cpu", 0x8c41dd2693012b39ull},
    {"testbed_sweep", "cell/redis_b/host", 0x835a942bb534653aull},
    {"testbed_sweep", "cell/redis_b/snic_cpu", 0xfb63ab05bb7a3276ull},
    {"testbed_sweep", "cell/redis_c/host", 0x0c498f7db6922f9eull},
    {"testbed_sweep", "cell/redis_c/snic_cpu", 0xb80bfb931bf16baeull},
    {"testbed_sweep", "cell/snort_img/host", 0x910b36a48c95de86ull},
    {"testbed_sweep", "cell/snort_img/snic_cpu", 0x29f9a5115bb91d84ull},
    {"testbed_sweep", "cell/snort_fla/host", 0xeed1a1693ccd0cfaull},
    {"testbed_sweep", "cell/snort_fla/snic_cpu", 0x8b0df72be16fe0faull},
    {"testbed_sweep", "cell/snort_exe/host", 0x3badfb553d542831ull},
    {"testbed_sweep", "cell/snort_exe/snic_cpu", 0x2bab4393fe8ec6d2ull},
    {"testbed_sweep", "cell/nat_10k/host", 0xf28a23a19f10c41bull},
    {"testbed_sweep", "cell/nat_10k/snic_cpu", 0x997a0cb623d7ef30ull},
    {"testbed_sweep", "cell/nat_1m/host", 0x887f0aa4d12c6608ull},
    {"testbed_sweep", "cell/nat_1m/snic_cpu", 0x03e9486250c9fa2bull},
    {"testbed_sweep", "cell/bm25_100/host", 0xa9bef1ed13a41f0aull},
    {"testbed_sweep", "cell/bm25_100/snic_cpu", 0x2aa9adfd77c71270ull},
    {"testbed_sweep", "cell/bm25_1k/host", 0xeb882bfa005f608full},
    {"testbed_sweep", "cell/bm25_1k/snic_cpu", 0x47d5d371a9e92cf3ull},
    {"testbed_sweep", "cell/mica_b4/host", 0x125066430d61ffe1ull},
    {"testbed_sweep", "cell/mica_b4/snic_cpu", 0x2796ef47d19584deull},
    {"testbed_sweep", "cell/mica_b32/host", 0xb8e5416fd1a665d6ull},
    {"testbed_sweep", "cell/mica_b32/snic_cpu", 0xcf631bf8bb99a905ull},
    {"testbed_sweep", "cell/fio_read/host", 0x93abe40a79b7af70ull},
    {"testbed_sweep", "cell/fio_read/snic_cpu", 0x8d36093f464998a0ull},
    {"testbed_sweep", "cell/fio_write/host", 0x8c5e3eaf5a8eb2a4ull},
    {"testbed_sweep", "cell/fio_write/snic_cpu", 0x2d02848c38830b9cull},
    {"testbed_sweep", "cell/crypto_aes/host", 0x7d4fb6846670ba48ull},
    {"testbed_sweep", "cell/crypto_aes/snic_accel", 0xd5798eff387ace15ull},
    {"testbed_sweep", "cell/crypto_rsa/host", 0x903c1dba2715f92full},
    {"testbed_sweep", "cell/crypto_rsa/snic_accel", 0xa1ca2d482a09a778ull},
    {"testbed_sweep", "cell/crypto_sha1/host", 0x5f4ba6bf6a16ac59ull},
    {"testbed_sweep", "cell/crypto_sha1/snic_accel", 0x59e692cc1195b520ull},
    {"testbed_sweep", "cell/rem_img/host", 0xed31ac753adf7aafull},
    {"testbed_sweep", "cell/rem_img/snic_accel", 0x49a6de0d895b87b1ull},
    {"testbed_sweep", "cell/rem_fla/host", 0x6b1f2f8fc1a002d0ull},
    {"testbed_sweep", "cell/rem_fla/snic_accel", 0x49a6de0d895b87b1ull},
    {"testbed_sweep", "cell/rem_exe/host", 0x1ffb715f07a4df4eull},
    {"testbed_sweep", "cell/rem_exe/snic_accel", 0x49a6de0d895b87b1ull},
    {"testbed_sweep", "cell/comp_app/host", 0xf6baccdccd09518full},
    {"testbed_sweep", "cell/comp_app/snic_accel", 0x70292618ec4c258bull},
    {"testbed_sweep", "cell/comp_txt/host", 0x7dc52a41dd2d6a90ull},
    {"testbed_sweep", "cell/comp_txt/snic_accel", 0x42ba5669d01b9744ull},
    {"testbed_sweep", "cell/ovs_10/host", 0x4e81882106d520b1ull},
    {"testbed_sweep", "cell/ovs_10/snic_accel", 0x9c9d1231af796215ull},
    {"testbed_sweep", "cell/ovs_100/host", 0xd145d1539099f56cull},
    {"testbed_sweep", "cell/ovs_100/snic_accel", 0x1256e747cb3f3926ull},
    {"testbed_sweep", "e7/snic_only", 0x574c77d5ed1ddab6ull},
    {"testbed_sweep", "e7/host_only", 0x3e7b37470f578767ull},
    {"testbed_sweep", "e7/static_split", 0xa8017513f0aeb665ull},
    {"testbed_sweep", "e7/threshold", 0x8a484c60685cdf73ull},
    {"testbed_sweep", "e7/hw_threshold", 0xab42960d873be34dull},
    {"testbed_sweep", "xdp/nicache_skew0.5", 0xdd3926560be6d1f5ull},
    {"testbed_sweep", "xdp/acl_filter0.5", 0xd93edcf0d9b5eecdull},
    {"rack_m32_lq", "rack/m32_least_queue", 0x96f59b83ea67f1eeull},
    {"fleet_day", "fleet/day_p99_feedback", 0x50f713efb837f06dull},
    {"chain_advisor", "chain/host+host+host", 0x327d925941599286ull},
    {"chain_advisor", "chain/snic_accel+snic_accel+snic_cpu", 0x0732cb7dabe6768dull},
    {"chain_advisor", "chain/snic_accel+snic_accel+host", 0x4209800fed48c691ull},
    {"chain_advisor", "chain/host+snic_accel+host", 0x44c1ab6c5842b8b2ull},
    {"chain_advisor", "chain/snic_cpu+snic_accel+snic_cpu", 0x7edcf1731c4086aaull},
    {"chain_advisor", "chain/snic_accel+host+host", 0x2f4f131d7aaa52d4ull},
    {"chain_advisor", "advisor/p99_60us", 0x6a545e3807c26ee5ull},
    {"chain_advisor", "advisor/p99_2000us", 0xba279590911fc3f1ull},
    {"chain_advisor", "rack_advisor/double_rem", 0x1afca43231f1c877ull},
};

} // anonymous namespace

std::uint64_t
pinnedDigest(const std::string &workload, const std::string &op)
{
    for (const Pin &p : kPins)
        if (workload == p.workload && op == p.op)
            return p.digest;
    return 0;
}

} // namespace perfbench
