/**
 * @file
 * Analytic latency/bandwidth model of the LAORAM server path.
 *
 * The paper's measured access time covers: the client sending a path id
 * to the server, the server streaming every bucket on that path out of
 * DDR4, the transfer back over the host link (PCIe) into the trainer
 * GPU's stash, and client-side metadata work (position-map update,
 * stash bookkeeping) — and the same in reverse for the write-back
 * (§VIII-B). We model each leg with a fixed latency plus a
 * bytes/bandwidth term. Absolute numbers are approximations of the
 * paper's testbed; every reported result is a *ratio* between engines
 * run under the identical model, which is what the paper reports too.
 */

#ifndef LAORAM_MEM_COST_MODEL_HH
#define LAORAM_MEM_COST_MODEL_HH

#include <cstdint>

namespace laoram::mem {

/** Tunable latency/bandwidth parameters (defaults ≈ DDR4 + PCIe 3.0). */
struct CostModelParams
{
    double dramLatencyNs = 60.0;      ///< per server request
    double dramBandwidthGBps = 19.2;  ///< DDR4-2400, one channel
    double linkLatencyNs = 1200.0;    ///< client<->server round trip
    double linkBandwidthGBps = 12.0;  ///< effective PCIe 3.0 x16
    double clientPerBlockNs = 8.0;    ///< stash/posmap work per block
};

/**
 * Converts ORAM traffic events into simulated nanoseconds.
 *
 * All engines (PathORAM, PrORAM, RingORAM, LAORAM) charge their server
 * traffic through one of these, so engine comparisons are apples to
 * apples.
 */
class CostModel
{
  public:
    explicit CostModel(const CostModelParams &params = {});

    /**
     * Cost of reading one path (or a RingORAM slot set) of @p bytes
     * spread over @p blocks blocks.
     */
    double pathReadNs(std::uint64_t bytes, std::uint64_t blocks) const;

    /** Cost of writing a path back. Symmetric with reads on DDR4. */
    double pathWriteNs(std::uint64_t bytes, std::uint64_t blocks) const;

    /**
     * A dummy (background-eviction) access is a read plus a write-back
     * of one path: @p bytesRead / @p blocksRead fetched, @p bytesWritten
     * / @p blocksWritten stored.
     */
    double dummyAccessNs(std::uint64_t bytesRead, std::uint64_t blocksRead,
                         std::uint64_t bytesWritten,
                         std::uint64_t blocksWritten) const;

    const CostModelParams &params() const { return p; }

  private:
    double transferNs(std::uint64_t bytes) const;

    CostModelParams p;
};

} // namespace laoram::mem

#endif // LAORAM_MEM_COST_MODEL_HH
