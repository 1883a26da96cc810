/**
 * @file
 * Cryptography workload: AES, RSA and SHA-1 jobs run locally on the
 * server (Sec. 3.4: no client packets; the paper measures OpenSSL-
 * style algorithm throughput; one SNIC CPU core suffices to feed the
 * PKA accelerator).
 */

#ifndef SNIC_WORKLOADS_CRYPTO_HH
#define SNIC_WORKLOADS_CRYPTO_HH

#include <memory>

#include "workloads/workload.hh"

namespace snic::workloads {

/** The three algorithms of the study. */
enum class CryptoAlg
{
    Aes,   ///< AES-128-CTR over 16 KB buffers
    Rsa,   ///< RSA-512 private-key operation
    Sha1,  ///< SHA-1 over 16 KB buffers
};

class Crypto : public Workload
{
  public:
    explicit Crypto(CryptoAlg alg);

    void setup(sim::Random &rng) override;
    RequestPlan plan(std::uint32_t request_bytes, hw::Platform platform,
                     sim::Random &rng) override;

    static constexpr std::size_t bufferBytes = 16384;
    static constexpr unsigned rsaBits = 512;

    CryptoAlg alg() const { return _alg; }

  private:
    static alg::WorkCounters measureJob(CryptoAlg kind,
                                        sim::Random &rng);

    CryptoAlg _alg;
    /** Deterministic per-job work measured from the real algorithm;
     *  shared across instances (setup_cache.hh). */
    std::shared_ptr<const alg::WorkCounters> _jobWork;
};

/** Algorithm display name. */
const char *cryptoAlgName(CryptoAlg alg);

} // namespace snic::workloads

#endif // SNIC_WORKLOADS_CRYPTO_HH
