#include "mem/traffic_meter.hh"

#include <ostream>

namespace laoram::mem {

MeterObs &
meterObs()
{
    auto &reg = obs::MetricsRegistry::instance();
    static MeterObs m{
        reg.counter("oram.logical_accesses",
                    "application block requests"),
        reg.counter("oram.path_reads", "real path fetches"),
        reg.counter("oram.path_writes", "path write-backs"),
        reg.counter("oram.dummy_reads",
                    "background-eviction accesses"),
        reg.counter("oram.bytes_read", "server bytes read"),
        reg.counter("oram.bytes_written", "server bytes written"),
        reg.counter("oram.stash_hits", "requests served from stash"),
        reg.counter("oram.reshuffles", "RingORAM bucket reshuffles"),
        reg.gauge("oram.stash_peak",
                  "stash high-water mark over all engines"),
    };
    return m;
}

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

TrafficMeter::TrafficMeter(const CostModel &model) : model(model) {}

void
TrafficMeter::recordPathReads(std::uint64_t paths, std::uint64_t bytes,
                              std::uint64_t blocks)
{
    c.pathReads += paths;
    c.blocksRead += blocks;
    c.bytesRead += bytes;
    clk.advanceNs(model.pathReadNs(bytes, blocks));
    if (obs::metricsEnabled()) {
        MeterObs &m = meterObs();
        m.pathReads.add(paths);
        m.bytesRead.add(bytes);
    }
}

void
TrafficMeter::recordPathWrites(std::uint64_t paths, std::uint64_t bytes,
                               std::uint64_t blocks)
{
    c.pathWrites += paths;
    c.blocksWritten += blocks;
    c.bytesWritten += bytes;
    clk.advanceNs(model.pathWriteNs(bytes, blocks));
    if (obs::metricsEnabled()) {
        MeterObs &m = meterObs();
        m.pathWrites.add(paths);
        m.bytesWritten.add(bytes);
    }
}

void
TrafficMeter::recordDummyAccess(std::uint64_t bytes, std::uint64_t blocks)
{
    ++c.dummyReads;
    c.blocksRead += blocks;
    c.bytesRead += bytes;
    c.blocksWritten += blocks;
    c.bytesWritten += bytes;
    clk.advanceNs(model.dummyAccessNs(bytes, blocks));
    if (obs::metricsEnabled()) {
        MeterObs &m = meterObs();
        m.dummyReads.inc();
        m.bytesRead.add(bytes);
        m.bytesWritten.add(bytes);
    }
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
    if (obs::metricsEnabled()) {
        MeterObs &m = meterObs();
        m.reshuffles.inc();
        m.bytesRead.add(bytesRead);
        m.bytesWritten.add(bytesWritten);
    }
}

void
TrafficMeter::observeStashSize(std::uint64_t blocks)
{
    if (blocks > c.stashPeak)
        c.stashPeak = blocks;
    if (obs::metricsEnabled()) {
        meterObs().stashPeak.setMax(
            static_cast<std::int64_t>(blocks));
    }
}

void
TrafficMeter::reset()
{
    c = TrafficCounters{};
    clk.reset();
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
