/**
 * @file
 * Accelerator factories.
 */

#include "hw/accelerator.hh"

#include "hw/specs.hh"
#include "sim/logging.hh"

namespace snic::hw {

namespace {

/** ns per byte at a sustained engine rate of @p gbps per lane. */
double
nsPerByteAt(double gbps, unsigned lanes)
{
    // The quoted ceiling is for the whole engine; each lane carries
    // its share.
    const double bytes_per_sec = gbps * 1e9 / 8.0 /
                                 static_cast<double>(lanes);
    return 1e9 / bytes_per_sec;
}

} // anonymous namespace

const char *
accelName(AccelKind kind)
{
    switch (kind) {
      case AccelKind::Rem:
        return "rem_accel";
      case AccelKind::Pka:
        return "pka_accel";
      case AccelKind::Compression:
        return "comp_accel";
    }
    sim::panic("accelName: bad kind");
}

BatchConfig
accelBatchDefaults(AccelKind kind)
{
    BatchConfig b;
    switch (kind) {
      case AccelKind::Rem:
        b.maxBatch = specs::rem_accel::jobBatch;
        b.coalesceWindowNs = specs::rem_accel::coalesceWindowNs;
        b.batchSetupNs = specs::rem_accel::batchSetupNs;
        b.batchedPipelineNs = specs::rem_accel::batchedPipelineNs;
        break;
      case AccelKind::Pka:
        b.maxBatch = specs::pka_accel::jobBatch;
        b.coalesceWindowNs = specs::pka_accel::coalesceWindowNs;
        break;
      case AccelKind::Compression:
        b.maxBatch = specs::comp_accel::jobBatch;
        b.coalesceWindowNs = specs::comp_accel::coalesceWindowNs;
        break;
    }
    return b;
}

std::unique_ptr<ExecutionPlatform>
makeAccelerator(sim::Simulation &sim, AccelKind kind)
{
    CostModel m;  // all-zero: accelerators price only what they do
    double setup_ns = 0.0;
    double pipeline_ns = 0.0;
    unsigned lanes = 1;

    switch (kind) {
      case AccelKind::Rem:
        m.perStreamByte =
            nsPerByteAt(specs::rem_accel::scanGbps,
                        specs::rem_accel::lanes);
        setup_ns = specs::rem_accel::jobSetupNs;
        pipeline_ns = specs::rem_accel::pipelineNs;
        lanes = specs::rem_accel::lanes;
        break;
      case AccelKind::Pka:
        m.perCryptoBlock = specs::pka_accel::perCryptoBlock;
        m.perHashBlock = specs::pka_accel::perHashBlock;
        m.perBigMulOp = specs::pka_accel::perBigMulOp;
        setup_ns = specs::pka_accel::jobSetupNs;
        pipeline_ns = specs::pka_accel::pipelineNs;
        lanes = specs::pka_accel::lanes;
        break;
      case AccelKind::Compression:
        m.perStreamByte =
            nsPerByteAt(specs::comp_accel::inputGbps,
                        specs::comp_accel::lanes);
        setup_ns = specs::comp_accel::jobSetupNs;
        pipeline_ns = specs::comp_accel::pipelineNs;
        lanes = specs::comp_accel::lanes;
        break;
    }

    return std::make_unique<ExecutionPlatform>(
        sim, accelName(kind), lanes, m, setup_ns, pipeline_ns);
}

} // namespace snic::hw
