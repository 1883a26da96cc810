/**
 * @file
 * Crypto workload implementation. The per-job counters come from
 * actually running the algorithms at setup, so RSA's cost reflects
 * the real modexp multiply count of the generated key.
 */

#include "workloads/crypto.hh"

#include "alg/crypto/aes.hh"
#include "alg/crypto/rsa.hh"
#include "alg/crypto/sha1.hh"
#include "sim/logging.hh"
#include "workloads/setup_cache.hh"

namespace snic::workloads {

const char *
cryptoAlgName(CryptoAlg alg)
{
    switch (alg) {
      case CryptoAlg::Aes:
        return "aes";
      case CryptoAlg::Rsa:
        return "rsa";
      case CryptoAlg::Sha1:
        return "sha1";
    }
    sim::panic("cryptoAlgName: bad alg");
}

namespace {

Spec
cryptoSpec(CryptoAlg alg)
{
    Spec s;
    s.id = std::string("crypto_") + cryptoAlgName(alg);
    s.family = "crypto";
    s.configLabel = cryptoAlgName(alg);
    s.drive = Drive::LocalJobs;
    s.sizes = net::SizeDist::fixed(Crypto::bufferBytes);
    s.supportsAccel = true;
    s.accel = hw::AccelKind::Pka;
    // One SNIC core posts PKA commands at full accelerator rate.
    s.snicCores = alg == CryptoAlg::Rsa ? 1 : 2;
    return s;
}

} // anonymous namespace

Crypto::Crypto(CryptoAlg alg)
    : Workload(cryptoSpec(alg)), _alg(alg)
{
}

void
Crypto::setup(sim::Random &rng)
{
    _jobWork = cachedSetup<alg::WorkCounters>(
        id(), rng, [this](sim::Random &r) { return measureJob(_alg, r); });
}

alg::WorkCounters
Crypto::measureJob(CryptoAlg kind, sim::Random &rng)
{
    alg::WorkCounters job;
    switch (kind) {
      case CryptoAlg::Aes: {
        alg::crypto::Aes128::Key key{};
        for (auto &b : key)
            b = static_cast<std::uint8_t>(rng.next());
        alg::crypto::Aes128 aes(key);
        std::vector<std::uint8_t> buffer(bufferBytes);
        for (auto &b : buffer)
            b = static_cast<std::uint8_t>(rng.next());
        aes.ctr(buffer, rng.next(), job);
        break;
      }
      case CryptoAlg::Sha1: {
        std::vector<std::uint8_t> buffer(bufferBytes);
        for (auto &b : buffer)
            b = static_cast<std::uint8_t>(rng.next());
        alg::crypto::Sha1::digest(buffer, job);
        break;
      }
      case CryptoAlg::Rsa: {
        alg::WorkCounters keygen_work;  // keygen cost not charged
        const auto key =
            alg::crypto::Rsa::generate(rsaBits, rng, keygen_work);
        const auto m = alg::crypto::Bignum::fromUint(rng.next() >> 1);
        const auto c = alg::crypto::Rsa::encrypt(m, key, job);
        // The measured unit is the private-key operation.
        job = alg::WorkCounters{};
        alg::crypto::Rsa::decrypt(c, key, job);
        break;
      }
    }
    job.messages = 1;
    return job;
}

RequestPlan
Crypto::plan(std::uint32_t request_bytes, hw::Platform platform,
             sim::Random &rng)
{
    (void)request_bytes;
    (void)rng;
    RequestPlan p;
    if (platform == hw::Platform::SnicAccel) {
        // SNIC CPU posts the command descriptor; the PKA engine does
        // the algorithm.
        p.cpuWork.branchyOps = 60;
        p.cpuWork.arithOps = 30;
        p.accelWork = *_jobWork;
    } else {
        p.cpuWork = *_jobWork;
    }
    p.responseBytes = 0;  // local computation
    return p;
}

} // namespace snic::workloads
