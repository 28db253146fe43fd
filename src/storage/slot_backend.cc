#include "storage/slot_backend.hh"

#include <cstring>

#include "obs/trace.hh"
#include "storage/dram_backend.hh"
#include "storage/mmap_backend.hh"
#include "storage/remote_backend.hh"
#include "util/logging.hh"
#include "util/walltime.hh"

namespace laoram::storage {

IoStats
IoStats::since(const IoStats &start) const
{
    IoStats d;
    d.readOps = readOps - start.readOps;
    d.writeOps = writeOps - start.writeOps;
    d.slotsRead = slotsRead - start.slotsRead;
    d.slotsWritten = slotsWritten - start.slotsWritten;
    d.bytesRead = bytesRead - start.bytesRead;
    d.bytesWritten = bytesWritten - start.bytesWritten;
    d.flushes = flushes - start.flushes;
    d.readNs = readNs - start.readNs;
    d.writeNs = writeNs - start.writeNs;
    d.flushNs = flushNs - start.flushNs;
    return d;
}

IoStats &
IoStats::operator+=(const IoStats &other)
{
    readOps += other.readOps;
    writeOps += other.writeOps;
    slotsRead += other.slotsRead;
    slotsWritten += other.slotsWritten;
    bytesRead += other.bytesRead;
    bytesWritten += other.bytesWritten;
    flushes += other.flushes;
    readNs += other.readNs;
    writeNs += other.writeNs;
    flushNs += other.flushNs;
    return *this;
}

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Dram:
        return "dram";
      case BackendKind::MmapFile:
        return "mmap";
      case BackendKind::Remote:
        return "remote";
    }
    return "?";
}

SlotBackend::SlotBackend(std::string name, std::uint64_t slots,
                         std::uint64_t recordBytes)
    : nSlots(slots), recBytes(recordBytes), kindName(std::move(name)),
      source([this](obs::PullSink &out) {
          const IoStats io = ioStats();
          const std::string p = "storage." + kindName + ".";
          out.counter(p + "read_ops", "", io.readOps);
          out.counter(p + "write_ops", "", io.writeOps);
          out.counter(p + "slots_read", "", io.slotsRead);
          out.counter(p + "slots_written", "", io.slotsWritten);
          out.counter(p + "bytes_read", "", io.bytesRead);
          out.counter(p + "bytes_written", "", io.bytesWritten);
          out.counter(p + "flushes", "", io.flushes);
          out.counter(p + "read_ns", "",
                      static_cast<std::uint64_t>(io.readNs));
          out.counter(p + "write_ns", "",
                      static_cast<std::uint64_t>(io.writeNs));
      })
{
    LAORAM_ASSERT(recBytes > 0, "slot records cannot be empty");
}

void
SlotBackend::countRead(std::uint64_t slotCount, std::int64_t ns)
{
    ++stats.readOps;
    stats.slotsRead += slotCount;
    stats.bytesRead += slotCount * recBytes;
    stats.readNs += ns;
}

void
SlotBackend::countWrite(std::uint64_t slotCount, std::int64_t ns)
{
    ++stats.writeOps;
    stats.slotsWritten += slotCount;
    stats.bytesWritten += slotCount * recBytes;
    stats.writeNs += ns;
}

void
SlotBackend::checkSlots(const std::uint64_t *slots, std::size_t n) const
{
    for (std::size_t i = 0; i < n; ++i)
        LAORAM_ASSERT(slots[i] < nSlots, "slot ", slots[i],
                      " out of range");
}

void
SlotBackend::readSlots(const std::uint64_t *slots, std::size_t n,
                       std::uint8_t *dst)
{
    if (n == 0)
        return;
    checkSlots(slots, n);
    const WallClock::time_point t0 = WallClock::now();
    doReadSlots(slots, n, dst);
    const std::int64_t ns = elapsedNs(t0);
    countRead(n, ns);
    obs::traceRecordEndingNow("path-read", ns, n);
}

void
SlotBackend::writeSlots(const std::uint64_t *slots, std::size_t n,
                        const std::uint8_t *src)
{
    if (n == 0)
        return;
    checkSlots(slots, n);
    const WallClock::time_point t0 = WallClock::now();
    doWriteSlots(slots, n, src);
    const std::int64_t ns = elapsedNs(t0);
    countWrite(n, ns);
    obs::traceRecordEndingNow("path-write", ns, n);
}

void
SlotBackend::flush()
{
    const WallClock::time_point t0 = WallClock::now();
    doFlush();
    stats.flushNs += elapsedNs(t0);
    ++stats.flushes;
}

void
SlotBackend::noteMappedRead(std::uint64_t slotCount, std::int64_t ns)
{
    countRead(slotCount, ns);
    // The mapped fast path only measures a duration, so the span is
    // back-dated to end at the report point.
    obs::traceRecordEndingNow("path-read", ns, slotCount);
}

void
SlotBackend::noteMappedWrite(std::uint64_t slotCount, std::int64_t ns)
{
    countWrite(slotCount, ns);
    obs::traceRecordEndingNow("path-write", ns, slotCount);
}

void
SlotBackend::doReadSlots(const std::uint64_t *slots, std::size_t n,
                         std::uint8_t *dst)
{
    const std::uint8_t *base = mappedBase();
    LAORAM_ASSERT(base, "staged backend ", kindName,
                  " must override doReadSlots");
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(dst + i * recBytes, base + slots[i] * recBytes,
                    recBytes);
}

void
SlotBackend::doWriteSlots(const std::uint64_t *slots, std::size_t n,
                          const std::uint8_t *src)
{
    std::uint8_t *base = mappedBase();
    LAORAM_ASSERT(base, "staged backend ", kindName,
                  " must override doWriteSlots");
    for (std::size_t i = 0; i < n; ++i)
        std::memcpy(base + slots[i] * recBytes, src + i * recBytes,
                    recBytes);
}

std::unique_ptr<SlotBackend>
makeBackend(const StorageConfig &cfg, std::uint64_t slots,
            std::uint64_t recordBytes, std::uint64_t metaBytes)
{
    switch (cfg.kind) {
      case BackendKind::Dram:
        return std::make_unique<DramBackend>(slots, recordBytes);
      case BackendKind::MmapFile:
        if (cfg.path.empty())
            LAORAM_FATAL("mmap storage backend requires a file path "
                         "(StorageConfig::path)");
        return std::make_unique<MmapFileBackend>(cfg, slots,
                                                 recordBytes,
                                                 metaBytes);
      case BackendKind::Remote:
        // Self-hosted node: the client backend owns an in-process
        // RemoteKvServer composing over DRAM (or mmap when a path is
        // configured), so every caller of makeBackend gets the full
        // RPC data path without managing a server.
        return std::make_unique<RemoteKvBackend>(cfg, slots,
                                                 recordBytes,
                                                 metaBytes);
    }
    LAORAM_PANIC("unreachable backend kind");
}

} // namespace laoram::storage
