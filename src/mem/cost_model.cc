#include "mem/cost_model.hh"

#include "util/logging.hh"

namespace laoram::mem {

CostModel::CostModel(const CostModelParams &params) : p(params)
{
    LAORAM_ASSERT(p.dramBandwidthGBps > 0.0, "DRAM bandwidth must be > 0");
    LAORAM_ASSERT(p.linkBandwidthGBps > 0.0, "link bandwidth must be > 0");
}

double
CostModel::transferNs(std::uint64_t bytes) const
{
    const double b = static_cast<double>(bytes);
    // GB/s == bytes/ns, so the division below is already in ns.
    return b / p.dramBandwidthGBps + b / p.linkBandwidthGBps;
}

double
CostModel::pathReadNs(std::uint64_t bytes, std::uint64_t blocks) const
{
    return p.dramLatencyNs + p.linkLatencyNs + transferNs(bytes)
        + p.clientPerBlockNs * static_cast<double>(blocks);
}

double
CostModel::pathWriteNs(std::uint64_t bytes, std::uint64_t blocks) const
{
    // Write-back overlaps no client round trip (the path id is already
    // known server-side), so it pays DRAM latency + transfer only.
    return p.dramLatencyNs + transferNs(bytes)
        + p.clientPerBlockNs * static_cast<double>(blocks);
}

double
CostModel::dummyAccessNs(std::uint64_t bytesRead, std::uint64_t blocksRead,
                         std::uint64_t bytesWritten,
                         std::uint64_t blocksWritten) const
{
    return pathReadNs(bytesRead, blocksRead)
        + pathWriteNs(bytesWritten, blocksWritten);
}

} // namespace laoram::mem
