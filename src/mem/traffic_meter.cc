#include "mem/traffic_meter.hh"

#include <ostream>

namespace laoram::mem {

double
TrafficCounters::dummyReadsPerAccess() const
{
    if (logicalAccesses == 0)
        return 0.0;
    return static_cast<double>(dummyReads)
        / static_cast<double>(logicalAccesses);
}

double
TrafficCounters::pathReadsPerAccess() const
{
    if (logicalAccesses == 0)
        return 0.0;
    return static_cast<double>(pathReads)
        / static_cast<double>(logicalAccesses);
}

TrafficCounters
TrafficCounters::since(const TrafficCounters &start) const
{
    TrafficCounters d;
    d.logicalAccesses = logicalAccesses - start.logicalAccesses;
    d.pathReads = pathReads - start.pathReads;
    d.pathWrites = pathWrites - start.pathWrites;
    d.dummyReads = dummyReads - start.dummyReads;
    d.blocksRead = blocksRead - start.blocksRead;
    d.blocksWritten = blocksWritten - start.blocksWritten;
    d.bytesRead = bytesRead - start.bytesRead;
    d.bytesWritten = bytesWritten - start.bytesWritten;
    d.stashPeak = stashPeak; // high-water mark is not interval-additive
    d.stashHits = stashHits - start.stashHits;
    d.reshuffles = reshuffles - start.reshuffles;
    return d;
}

TrafficCounters &
TrafficCounters::operator+=(const TrafficCounters &other)
{
    logicalAccesses += other.logicalAccesses;
    pathReads += other.pathReads;
    pathWrites += other.pathWrites;
    dummyReads += other.dummyReads;
    blocksRead += other.blocksRead;
    blocksWritten += other.blocksWritten;
    bytesRead += other.bytesRead;
    bytesWritten += other.bytesWritten;
    stashPeak += other.stashPeak;
    stashHits += other.stashHits;
    reshuffles += other.reshuffles;
    return *this;
}

TrafficMeter::TrafficMeter(const CostModel &model)
    : model(model), source([this](obs::PullSink &out) {
          const TrafficCounters t = counters();
          out.counter("oram.logical_accesses",
                      "application block requests", t.logicalAccesses);
          out.counter("oram.path_reads", "real path fetches",
                      t.pathReads);
          out.counter("oram.path_writes", "path write-backs",
                      t.pathWrites);
          out.counter("oram.dummy_reads", "background-eviction accesses",
                      t.dummyReads);
          out.counter("oram.bytes_read", "server bytes read",
                      t.bytesRead);
          out.counter("oram.bytes_written", "server bytes written",
                      t.bytesWritten);
          out.counter("oram.stash_hits", "requests served from stash",
                      t.stashHits);
          out.counter("oram.reshuffles", "RingORAM bucket reshuffles",
                      t.reshuffles);
          out.highWater("oram.stash_peak",
                        "stash high-water mark over all engines",
                        t.stashPeak);
      })
{
}

void
TrafficMeter::recordPathReads(std::uint64_t paths, std::uint64_t bytes,
                              std::uint64_t blocks)
{
    c.pathReads += paths;
    c.blocksRead += blocks;
    c.bytesRead += bytes;
    clk.advanceNs(model.pathReadNs(bytes, blocks));
}

void
TrafficMeter::recordPathWrites(std::uint64_t paths, std::uint64_t bytes,
                               std::uint64_t blocks)
{
    c.pathWrites += paths;
    c.blocksWritten += blocks;
    c.bytesWritten += bytes;
    clk.advanceNs(model.pathWriteNs(bytes, blocks));
}

void
TrafficMeter::recordDummyAccess(std::uint64_t bytesRead,
                                std::uint64_t blocksRead,
                                std::uint64_t bytesWritten,
                                std::uint64_t blocksWritten)
{
    ++c.dummyReads;
    c.blocksRead += blocksRead;
    c.bytesRead += bytesRead;
    c.blocksWritten += blocksWritten;
    c.bytesWritten += bytesWritten;
    clk.advanceNs(model.dummyAccessNs(bytesRead, blocksRead,
                                      bytesWritten, blocksWritten));
}

void
TrafficMeter::recordReshuffle(std::uint64_t bytesRead,
                              std::uint64_t blocksRead,
                              std::uint64_t bytesWritten,
                              std::uint64_t blocksWritten)
{
    ++c.reshuffles;
    c.blocksRead += blocksRead;
    c.bytesRead += bytesRead;
    c.blocksWritten += blocksWritten;
    c.bytesWritten += bytesWritten;
    clk.advanceNs(model.pathReadNs(bytesRead, blocksRead)
                  + model.pathWriteNs(bytesWritten, blocksWritten));
}

void
TrafficMeter::observeStashSize(std::uint64_t blocks)
{
    if (blocks > c.stashPeak)
        c.stashPeak = blocks;
}

void
TrafficMeter::restoreState(const TrafficCounters &counters,
                           std::uint64_t clockPs)
{
    c = counters;
    clk.reset();
    clk.advancePs(clockPs);
}

void
TrafficMeter::printSummary(std::ostream &os, const char *label) const
{
    os << label << ": accesses=" << c.logicalAccesses
       << " pathReads=" << c.pathReads
       << " pathWrites=" << c.pathWrites
       << " dummyReads=" << c.dummyReads
       << " MBmoved=" << static_cast<double>(c.totalBytes()) / 1.0e6
       << " stashPeak=" << c.stashPeak
       << " simMs=" << clk.milliseconds() << "\n";
}

} // namespace laoram::mem
