/**
 * @file
 * WorkCounters implementation.
 */

#include "alg/workcount.hh"

namespace snic::alg {

WorkCounters &
WorkCounters::operator+=(const WorkCounters &other)
{
    streamBytes += other.streamBytes;
    randomTouches += other.randomTouches;
    branchyOps += other.branchyOps;
    arithOps += other.arithOps;
    cryptoBlocks += other.cryptoBlocks;
    hashBlocks += other.hashBlocks;
    bigMulOps += other.bigMulOps;
    kernelOps += other.kernelOps;
    messages += other.messages;
    return *this;
}

bool
WorkCounters::empty() const
{
    return streamBytes == 0 && randomTouches == 0 && branchyOps == 0 &&
           arithOps == 0 && cryptoBlocks == 0 && hashBlocks == 0 &&
           bigMulOps == 0 && kernelOps == 0 &&
           messages == 0;
}

} // namespace snic::alg
