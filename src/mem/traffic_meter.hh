/**
 * @file
 * Traffic accounting shared by every ORAM engine.
 *
 * Each engine owns a TrafficMeter and reports every server interaction
 * through it; the meter feeds both the cost model (simulated time) and
 * the paper's traffic metrics (Fig. 9 bandwidth reduction, Table II
 * dummy reads per access, Fig. 8 stash growth).
 */

#ifndef LAORAM_MEM_TRAFFIC_METER_HH
#define LAORAM_MEM_TRAFFIC_METER_HH

#include <cstdint>
#include <iosfwd>

#include "mem/cost_model.hh"
#include "mem/sim_clock.hh"
#include "obs/metrics.hh"

namespace laoram::mem {

/**
 * Snapshot of all traffic counters (value type; freely copyable). The
 * fields are obs::Tally cells, so the live meter's own copy may be
 * read by a sampler thread while the serving thread records.
 */
struct TrafficCounters
{
    using Count = obs::Tally<std::uint64_t>;

    Count logicalAccesses = 0; ///< application block requests
    Count pathReads = 0;       ///< real path fetches
    Count pathWrites = 0;      ///< path write-backs
    Count dummyReads = 0;      ///< background-eviction accesses
    Count blocksRead = 0;      ///< physical block slots read
    Count blocksWritten = 0;   ///< physical block slots written
    Count bytesRead = 0;
    Count bytesWritten = 0;
    Count stashPeak = 0;       ///< max blocks resident in stash
    Count stashHits = 0;       ///< requests served from stash
    Count reshuffles = 0;      ///< RingORAM bucket reshuffles

    std::uint64_t totalBytes() const { return bytesRead + bytesWritten; }

    double dummyReadsPerAccess() const;
    double pathReadsPerAccess() const;

    /** Element-wise difference (this - start), for interval metrics. */
    TrafficCounters since(const TrafficCounters &start) const;

    /**
     * Element-wise accumulation (shard aggregation). stashPeak sums
     * too: concurrent shard stashes are resident simultaneously, so
     * the summed peaks bound total client stash memory.
     */
    TrafficCounters &operator+=(const TrafficCounters &other);
};

/**
 * Live meter: counters + simulated clock + cost model.
 *
 * Engines call the record*() methods from their serving thread;
 * harnesses read counters() and elapsed time. The counters are also a
 * pulled metrics source (the oram.* series), so a sampler thread may
 * read them mid-run.
 */
class TrafficMeter
{
  public:
    explicit TrafficMeter(const CostModel &model);

    void recordLogicalAccess() { ++c.logicalAccesses; }

    /** Credit @p n logical accesses at once (superblock bins). */
    void recordLogicalAccesses(std::uint64_t n) { c.logicalAccesses += n; }

    void recordStashHit() { ++c.stashHits; }

    /**
     * A read of @p paths paths whose node-union totalled @p blocks
     * slots / @p bytes (shared prefixes fetched once). The burst pays
     * one request latency.
     */
    void recordPathReads(std::uint64_t paths, std::uint64_t bytes,
                         std::uint64_t blocks);
    /** Write-back of a path union. */
    void recordPathWrites(std::uint64_t paths, std::uint64_t bytes,
                          std::uint64_t blocks);
    /**
     * A dummy background-eviction access: @p blocksRead slots read
     * and @p blocksWritten slots written back (a PathORAM dummy moves
     * the same path both ways).
     */
    void recordDummyAccess(std::uint64_t bytesRead,
                           std::uint64_t blocksRead,
                           std::uint64_t bytesWritten,
                           std::uint64_t blocksWritten);
    /**
     * A RingORAM bucket reshuffle: @p blocksRead valid blocks read and
     * @p blocksWritten slots rewritten, charged without touching the
     * path-read/path-write counters.
     */
    void recordReshuffle(std::uint64_t bytesRead, std::uint64_t blocksRead,
                         std::uint64_t bytesWritten,
                         std::uint64_t blocksWritten);
    /** Track the stash high-water mark. */
    void observeStashSize(std::uint64_t blocks);

    /** A value snapshot of the counters (safe from any thread). */
    TrafficCounters counters() const { return c; }
    const SimClock &clock() const { return clk; }
    const CostModel &costModel() const { return model; }

    /**
     * Checkpoint support: overwrite all counters and rewind the
     * simulated clock to @p clockPs picoseconds, so a restored
     * engine's meter continues exactly where the snapshot left off.
     */
    void restoreState(const TrafficCounters &counters,
                      std::uint64_t clockPs);

    /** Human-readable one-block summary. */
    void printSummary(std::ostream &os, const char *label) const;

  private:
    CostModel model;
    SimClock clk;
    TrafficCounters c;
    obs::MetricsSource source; ///< publishes c; declared after it
};

} // namespace laoram::mem

#endif // LAORAM_MEM_TRAFFIC_METER_HH
