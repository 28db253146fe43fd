/**
 * @file
 * Backend conformance suite: one parameterized fixture run against
 * every SlotBackend flavour (DRAM, mmap file, a staged/
 * non-addressable reference backend, the remote-KV RPC backend over
 * an in-process server, and the same RPC backend dialled through a
 * fault-injecting TCP relay that drops the connection mid-suite),
 * crossed with encryption on/off and payloadBytes 0 / >0. Every
 * backend must be observationally identical through the
 * ServerStorage API — same records, same sink trace, same
 * semantics for a path-sized vector and a vector of one —
 * reconnect-and-replay included.
 *
 * Plus mmap-specific persistence tests (byte-identical reads after
 * close/reopen, incompatible-file rejection) and engine-level tests
 * (PathORAM, RingORAM, recursive PathORAM) that backend choice — DRAM,
 * mmap or a remote node — does not change ORAM behaviour.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../common/slot_io.hh"
#include "../common/temp_dir.hh"
#include "../net/flaky_proxy.hh"
#include "oram/path_oram.hh"
#include "oram/recursive_posmap.hh"
#include "oram/ring_oram.hh"
#include "oram/server_storage.hh"
#include "storage/dram_backend.hh"
#include "storage/mmap_backend.hh"
#include "storage/remote_backend.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

using storage::BackendKind;
using storage::SlotBackend;
using storage::StorageConfig;

/**
 * Staged reference backend: DRAM semantics but *not* addressable
 * (mappedBase() == null), so ServerStorage exercises the generic
 * vectored staging path — the shape a remote-KV backend will use.
 */
class StagedBackend final : public SlotBackend
{
  public:
    StagedBackend(std::uint64_t slots, std::uint64_t recordBytes)
        : SlotBackend("staged", slots, recordBytes),
          raw(slots * recordBytes, 0)
    {
    }

    std::uint64_t residentBytes() const override { return raw.size(); }

  protected:
    void
    doReadSlots(const std::uint64_t *slots, std::size_t n,
                std::uint8_t *dst) override
    {
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + i * recBytes,
                        raw.data() + slots[i] * recBytes, recBytes);
    }
    void
    doWriteSlots(const std::uint64_t *slots, std::size_t n,
                 const std::uint8_t *src) override
    {
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(raw.data() + slots[i] * recBytes,
                        src + i * recBytes, recBytes);
    }

  private:
    std::vector<std::uint8_t> raw;
};

enum class Flavor
{
    Dram,
    Mmap,
    Staged,
    Remote,
    Proxied,
};

const char *
flavorName(Flavor f)
{
    switch (f) {
      case Flavor::Dram:
        return "Dram";
      case Flavor::Mmap:
        return "Mmap";
      case Flavor::Staged:
        return "Staged";
      case Flavor::Remote:
        return "Remote";
      case Flavor::Proxied:
        return "Proxied";
    }
    return "?";
}

using Param = std::tuple<Flavor, bool /*encrypt*/, std::uint64_t
                         /*payloadBytes*/>;

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    const auto [flavor, encrypt, payload] = info.param;
    return std::string(flavorName(flavor))
        + (encrypt ? "Enc" : "Plain") + "P"
        + std::to_string(payload);
}

TreeGeometry
smallGeom()
{
    return TreeGeometry(64, 64, BucketProfile::uniform(4));
}

class BackendConformance : public ::testing::TestWithParam<Param>
{
  protected:
    std::unique_ptr<ServerStorage>
    makeStorage(const TreeGeometry &geom, bool keepExisting = false)
    {
        const auto [flavor, encrypt, payload] = GetParam();
        switch (flavor) {
          case Flavor::Dram: {
            StorageConfig scfg;
            return std::make_unique<ServerStorage>(geom, payload,
                                                   encrypt, kSeed,
                                                   scfg);
          }
          case Flavor::Mmap: {
            StorageConfig scfg;
            scfg.kind = BackendKind::MmapFile;
            scfg.path = path;
            scfg.keepExisting = keepExisting;
            return std::make_unique<ServerStorage>(geom, payload,
                                                   encrypt, kSeed,
                                                   scfg);
          }
          case Flavor::Staged: {
            auto backend = std::make_unique<StagedBackend>(
                geom.totalSlots(), 16 + payload);
            return std::make_unique<ServerStorage>(
                geom, payload, encrypt, kSeed, std::move(backend));
          }
          case Flavor::Remote: {
            // Self-hosted RPC node over DRAM; a tiny shaped latency
            // keeps the async-write window genuinely in flight.
            StorageConfig scfg;
            scfg.kind = BackendKind::Remote;
            scfg.remote.latencyNs = 2000;
            scfg.remote.windowDepth = 2;
            auto backend = std::make_unique<storage::RemoteKvBackend>(
                scfg, geom.totalSlots(), 16 + payload, 0);
            return std::make_unique<ServerStorage>(
                geom, payload, encrypt, kSeed, std::move(backend));
          }
          case Flavor::Proxied: {
            // Endpoint-mode client dialled through a relay that cuts
            // the link after a handful of requests: every test in the
            // suite must pass across at least one reconnect + replay.
            proxiedNode = std::make_unique<storage::RemoteKvServer>(
                storage::makeBackend(StorageConfig{},
                                     geom.totalSlots(), 16 + payload,
                                     0),
                storage::RemoteKvConfig{});
            net::FaultPlan plan;
            plan.dropAfterRequests = 4;
            proxy = std::make_unique<net::FlakyProxy>(*proxiedNode,
                                                      plan);
            StorageConfig scfg;
            scfg.kind = BackendKind::Remote;
            scfg.remote.endpoint = proxy->endpoint();
            scfg.remote.maxRetries = 6;
            scfg.remote.backoffBaseMs = 2;
            scfg.remote.backoffMaxMs = 40;
            auto backend = std::make_unique<storage::RemoteKvBackend>(
                scfg, geom.totalSlots(), 16 + payload, 0);
            return std::make_unique<ServerStorage>(
                geom, payload, encrypt, kSeed, std::move(backend));
          }
        }
        return nullptr;
    }

    std::vector<std::uint8_t>
    somePayload(std::uint8_t fill) const
    {
        const auto payload = std::get<2>(GetParam());
        return std::vector<std::uint8_t>(payload, fill);
    }

    static constexpr std::uint64_t kSeed = 77;
    const TestTempDir tmp;
    const std::string path = tmp.path("backend.tree");

    // Proxied flavour only; declared on the fixture so they outlive
    // the test body's ServerStorage (whose teardown still talks to
    // the node through the relay).
    std::unique_ptr<storage::RemoteKvServer> proxiedNode;
    std::unique_ptr<net::FlakyProxy> proxy;
};

TEST_P(BackendConformance, StartsAllDummies)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s->slots(); slot += 17) {
        slotio::read(*s, slot, b);
        EXPECT_TRUE(b.isDummy());
    }
}

TEST_P(BackendConformance, SingleSlotRoundTrip)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    const auto payload = somePayload(0x3C);
    slotio::write(*s, 10, 1234, 7, payload.data(), payload.size());
    StoredBlock b;
    slotio::read(*s, 10, b);
    EXPECT_EQ(b.id, 1234u);
    EXPECT_EQ(b.leaf, 7u);
    EXPECT_EQ(b.payload, payload);
    slotio::writeDummy(*s, 10);
    slotio::read(*s, 10, b);
    EXPECT_TRUE(b.isDummy());
}

TEST_P(BackendConformance, VectoredMatchesSingleSlot)
{
    auto g = smallGeom();
    auto s = makeStorage(g);

    // Vectored write of a real/dummy mix...
    const auto p1 = somePayload(0x11);
    const auto p2 = somePayload(0x22);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {3, 100, 5, p1.data(), p1.size()},
        {4, kInvalidBlock, 0, nullptr, 0},
        {9, 200, 9, p2.data(), p2.size()},
    };
    s->writeSlots(ops.data(), ops.size());

    // ...reads back identically through both APIs.
    const std::vector<std::uint64_t> slots = {3, 4, 9};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);
    ASSERT_EQ(vec.size(), 3u);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        StoredBlock single;
        slotio::read(*s, slots[i], single);
        EXPECT_EQ(vec[i].id, single.id);
        EXPECT_EQ(vec[i].leaf, single.leaf);
        EXPECT_EQ(vec[i].payload, single.payload);
    }
    EXPECT_EQ(vec[0].id, 100u);
    EXPECT_TRUE(vec[1].isDummy());
    EXPECT_EQ(vec[2].id, 200u);
    EXPECT_EQ(vec[2].payload, p2);
}

TEST_P(BackendConformance, SinkSeesVectoredOpsPerSlotInOrder)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    std::vector<std::pair<std::uint64_t, bool>> log;
    s->setAccessSink([&](std::uint64_t slot, bool write) {
        log.emplace_back(slot, write);
    });

    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {8, 1, 0, nullptr, 0},
        {2, kInvalidBlock, 0, nullptr, 0},
    };
    s->writeSlots(ops.data(), ops.size());
    const std::vector<std::uint64_t> slots = {5, 8, 2};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);

    ASSERT_EQ(log.size(), 5u);
    EXPECT_EQ(log[0], std::make_pair(std::uint64_t{8}, true));
    EXPECT_EQ(log[1], std::make_pair(std::uint64_t{2}, true));
    EXPECT_EQ(log[2], std::make_pair(std::uint64_t{5}, false));
    EXPECT_EQ(log[3], std::make_pair(std::uint64_t{8}, false));
    EXPECT_EQ(log[4], std::make_pair(std::uint64_t{2}, false));
}

TEST_P(BackendConformance, IoStatsCountSlotsAndBytes)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    const storage::IoStats before = s->ioStats();

    const std::vector<std::uint64_t> slots = {1, 2, 3, 4, 5};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {1, 42, 0, nullptr, 0},
        {2, kInvalidBlock, 0, nullptr, 0},
    };
    s->writeSlots(ops.data(), ops.size());

    const storage::IoStats d = s->ioStats().since(before);
    EXPECT_EQ(d.readOps, 1u);  // vectored: one op per path
    EXPECT_EQ(d.slotsRead, 5u);
    EXPECT_EQ(d.bytesRead, 5 * s->recordBytes());
    EXPECT_EQ(d.writeOps, 1u);
    EXPECT_EQ(d.slotsWritten, 2u);
    EXPECT_EQ(d.bytesWritten, 2 * s->recordBytes());
    EXPECT_GE(d.readNs, 0);
    EXPECT_GE(d.writeNs, 0);

    // An empty vector is no op on any backend, mapped or staged.
    const storage::IoStats mid = s->ioStats();
    s->readSlots(slots.data(), 0, vec);
    s->writeSlots(ops.data(), 0);
    const storage::IoStats e = s->ioStats().since(mid);
    EXPECT_EQ(e.readOps, 0u);
    EXPECT_EQ(e.writeOps, 0u);
}

TEST_P(BackendConformance, DuplicateSlotInOneWriteKeepsLastRecord)
{
    // One vectored write that names a slot twice lands its last
    // record, on mapped and staged trees alike; sealed, each copy
    // takes its own epoch and the last one opens.
    auto g = smallGeom();
    auto s = makeStorage(g);
    const auto first = somePayload(0x11);
    const auto last = somePayload(0x22);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {6, 40, 1, first.data(), first.size()},
        {9, 41, 2, first.data(), first.size()},
        {6, 42, 3, last.data(), last.size()},
    };
    s->writeSlots(ops.data(), ops.size());
    StoredBlock b;
    slotio::read(*s, 6, b);
    EXPECT_EQ(b.id, 42u);
    EXPECT_EQ(b.leaf, 3u);
    EXPECT_EQ(b.payload, last);
    slotio::read(*s, 9, b);
    EXPECT_EQ(b.id, 41u);
    EXPECT_EQ(b.payload, first);
}

TEST_P(BackendConformance, CryptoLedgerCountsBatches)
{
    const bool encrypt = std::get<1>(GetParam());
    auto g = smallGeom();
    auto s = makeStorage(g);
    // A fresh tree seals every slot as a dummy at construction.
    const CryptoStats init = s->cryptoStats();
    EXPECT_EQ(init.recordsSealed, encrypt ? g.totalSlots() : 0u);
    EXPECT_EQ(init.recordsOpened, 0u);

    const std::vector<std::uint64_t> slots = {1, 2, 3, 4, 5};
    std::vector<StoredBlock> vec;
    s->readSlots(slots.data(), slots.size(), vec);
    const std::vector<ServerStorage::SlotWriteOp> ops = {
        {1, 42, 0, nullptr, 0},
        {2, kInvalidBlock, 0, nullptr, 0},
        {1, 43, 0, nullptr, 0},
    };
    s->writeSlots(ops.data(), ops.size());

    const CryptoStats c = s->cryptoStats();
    EXPECT_EQ(c.recordsOpened, encrypt ? 5u : 0u);
    EXPECT_EQ(c.recordsSealed - init.recordsSealed, encrypt ? 3u : 0u);
    EXPECT_GE(c.openNs, 0);
    EXPECT_GE(c.sealNs, 0);
    if (!encrypt) {
        EXPECT_EQ(c.openNs, 0);
        EXPECT_EQ(c.sealNs, 0);
    }
}

TEST_P(BackendConformance, ResidentBytesReported)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    // Every slot was dummy-initialised (written), so a DRAM-like
    // backend reports the full array and an mmap tree at least one
    // resident page.
    EXPECT_GT(s->residentBytes(), 0u);
    if (std::get<0>(GetParam()) != Flavor::Mmap) {
        EXPECT_EQ(s->residentBytes(),
                  g.totalSlots() * s->recordBytes());
    }
}

TEST_P(BackendConformance, FlushSucceeds)
{
    auto g = smallGeom();
    auto s = makeStorage(g);
    const storage::IoStats before = s->ioStats();
    s->flush();
    EXPECT_EQ(s->ioStats().since(before).flushes, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Combine(::testing::Values(Flavor::Dram, Flavor::Mmap,
                                         Flavor::Staged,
                                         Flavor::Remote,
                                         Flavor::Proxied),
                       ::testing::Bool(),
                       ::testing::Values(std::uint64_t{0},
                                         std::uint64_t{32})),
    paramName);

// ---------------------------------------------------- mmap persistence

class MmapReopen : public ::testing::TestWithParam<bool /*encrypt*/>
{
  protected:
    StorageConfig
    mmapConfig(bool keepExisting) const
    {
        StorageConfig scfg;
        scfg.kind = BackendKind::MmapFile;
        scfg.path = path;
        scfg.keepExisting = keepExisting;
        return scfg;
    }

    const TestTempDir tmp;
    const std::string path = tmp.path("backend.tree");
};

TEST_P(MmapReopen, ByteIdenticalAfterCloseAndReopen)
{
    const bool encrypt = GetParam();
    auto g = smallGeom();
    constexpr std::uint64_t kPayload = 24;
    constexpr std::uint64_t kSeed = 99;

    // Populate a pseudo-random mix of real and dummy slots, some
    // rewritten several times so encryption epochs diverge per slot.
    Rng rng(123);
    std::vector<StoredBlock> expect(g.totalSlots());
    {
        ServerStorage s(g, kPayload, encrypt, kSeed,
                        mmapConfig(false));
        EXPECT_FALSE(s.reopened());
        for (int round = 0; round < 3; ++round) {
            for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
                if (rng.nextBounded(3) == 0) {
                    slotio::writeDummy(s, slot);
                } else {
                    std::vector<std::uint8_t> payload(kPayload);
                    for (auto &b : payload)
                        b = static_cast<std::uint8_t>(
                            rng.nextBounded(256));
                    slotio::write(s, slot, rng.nextBounded(1 << 20),
                                  rng.nextBounded(64), payload.data(),
                                  payload.size());
                }
            }
        }
        for (std::uint64_t slot = 0; slot < s.slots(); ++slot)
            slotio::read(s, slot, expect[slot]);
        s.flush();
    } // destructor persists epochs + schedules write-back

    // Reopen from disk: every record must decode byte-identically.
    ServerStorage s(g, kPayload, encrypt, kSeed, mmapConfig(true));
    EXPECT_TRUE(s.reopened());
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
        slotio::read(s, slot, b);
        EXPECT_EQ(b.id, expect[slot].id) << "slot " << slot;
        EXPECT_EQ(b.leaf, expect[slot].leaf) << "slot " << slot;
        EXPECT_EQ(b.payload, expect[slot].payload) << "slot " << slot;
    }
}

INSTANTIATE_TEST_SUITE_P(EncryptOnOff, MmapReopen, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "Encrypted" : "Plain";
                         });

TEST(MmapBackend, ReopenRejectsIncompatibleGeometry)
{
    const TestTempDir tmp;
    const std::string path = tmp.path("backend.tree");
    auto g = smallGeom();
    {
        ServerStorage s(g, 16, false, 0,
                        [&] {
                            StorageConfig c;
                            c.kind = BackendKind::MmapFile;
                            c.path = path;
                            return c;
                        }());
    }
    // Same file, different record size: must refuse, not clobber.
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    c.keepExisting = true;
    EXPECT_THROW(ServerStorage(g, 48, false, 0, c),
                 std::runtime_error);
}

TEST(MmapBackend, ReopenRejectsWrongEncryptionKey)
{
    const TestTempDir tmp;
    const std::string path = tmp.path("backend.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    {
        ServerStorage s(g, 16, true, /*keySeed=*/1, c);
        std::vector<std::uint8_t> payload(16, 0x42);
        slotio::write(s, 0, 7, 1, payload.data(), payload.size());
    }
    // Same geometry, different key: the key-check canary must reject
    // the reopen instead of silently decoding garbage records.
    c.keepExisting = true;
    EXPECT_THROW(ServerStorage(g, 16, true, /*keySeed=*/2, c),
                 std::runtime_error);
    // The right key still reopens fine.
    ServerStorage s(g, 16, true, 1, c);
    EXPECT_TRUE(s.reopened());
    StoredBlock b;
    slotio::read(s, 0, b);
    EXPECT_EQ(b.id, 7u);
}

TEST(MmapBackend, KeepExistingOnMissingFileInitialisesFresh)
{
    const TestTempDir tmp;
    const std::string path = tmp.path("backend.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    c.keepExisting = true;
    ServerStorage s(g, 8, true, 1, c);
    EXPECT_FALSE(s.reopened());
    StoredBlock b;
    slotio::read(s, 0, b);
    EXPECT_TRUE(b.isDummy());
}

TEST(MmapBackend, DropPageCacheKeepsDataReadable)
{
    const TestTempDir tmp;
    const std::string path = tmp.path("backend.tree");
    auto g = smallGeom();
    StorageConfig c;
    c.kind = BackendKind::MmapFile;
    c.path = path;
    c.durability = storage::Durability::Sync;
    ServerStorage s(g, 32, false, 0, c);
    std::vector<std::uint8_t> payload(32, 0x77);
    slotio::write(s, 5, 42, 3, payload.data(), payload.size());
    s.flush();

    const std::uint64_t before = s.residentBytes();
    s.dropPageCache();
    EXPECT_LE(s.residentBytes(), before);

    StoredBlock b;
    slotio::read(s, 5, b); // faults back in from the file
    EXPECT_EQ(b.id, 42u);
    EXPECT_EQ(b.payload, payload);
}

// ------------------------------------------- engine-level equivalence

/** The adversary's view: every (slot, isWrite) the storage saw. */
using SlotTrace = std::vector<std::pair<std::uint64_t, bool>>;

/** One engine run: its slot trace and every payload it read. */
using EngineRun = std::pair<SlotTrace, std::vector<std::uint8_t>>;

EngineConfig
equivalenceConfig(const StorageConfig &scfg)
{
    EngineConfig cfg;
    cfg.numBlocks = 128;
    cfg.blockBytes = 64;
    cfg.payloadBytes = 32;
    cfg.encrypt = true;
    cfg.seed = 2024;
    cfg.storage = scfg;
    return cfg;
}

/** Install a sink on @p storage that appends to @p trace. */
void
recordTrace(ServerStorage &storage, SlotTrace &trace)
{
    storage.setAccessSink([&trace](std::uint64_t slot, bool write) {
        trace.emplace_back(slot, write);
    });
}

/**
 * Serve a fixed read/write mix through @p oram, then read every
 * block back; returns the payloads read, in order.
 */
std::vector<std::uint8_t>
serveMix(OramEngine &oram)
{
    Rng rng(5);
    std::vector<std::uint8_t> payloads;
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 400; ++i) {
        const BlockId id = rng.nextBounded(128);
        if (rng.nextBounded(2) == 0) {
            oram.writeBlock(id, std::vector<std::uint8_t>(
                                    32, static_cast<std::uint8_t>(i)));
        } else {
            oram.readBlock(id, out);
            payloads.insert(payloads.end(), out.begin(), out.end());
        }
    }
    for (BlockId id = 0; id < 128; ++id) {
        oram.readBlock(id, out);
        payloads.insert(payloads.end(), out.begin(), out.end());
    }
    return payloads;
}

/**
 * Backend choice must be invisible to the ORAM: @p run (one engine
 * run over a given storage config) over an mmap file and over a
 * self-hosted remote node (staged, RPC) produces the same payloads
 * AND the same physical access trace (the adversary's view) as over
 * DRAM.
 */
template <typename Run>
void
expectIdenticalAcrossBackends(Run run)
{
    const TestTempDir tmp;
    StorageConfig dram;
    StorageConfig mmap;
    mmap.kind = BackendKind::MmapFile;
    mmap.path = tmp.path("backend.tree");
    StorageConfig remote;
    remote.kind = BackendKind::Remote;

    const EngineRun want = run(dram);
    ASSERT_FALSE(want.second.empty());
    EXPECT_TRUE(run(mmap) == want) << "mmap differs from DRAM";
    EXPECT_TRUE(run(remote) == want) << "remote differs from DRAM";
}

TEST(BackendEquivalence, PathOramIdenticalAcrossBackends)
{
    expectIdenticalAcrossBackends([](const StorageConfig &scfg) {
        PathOram oram(equivalenceConfig(scfg));
        EngineRun got;
        recordTrace(oram.storageForTest(), got.first);
        got.second = serveMix(oram);
        return got;
    });
}

TEST(BackendEquivalence, RingOramIdenticalAcrossBackends)
{
    expectIdenticalAcrossBackends([](const StorageConfig &scfg) {
        RingOramConfig cfg;
        cfg.base = equivalenceConfig(scfg);
        // Few dummies and a low water mark: early reshuffles and
        // high-water evictions both run.
        cfg.realZ = 2;
        cfg.dummies = 1;
        cfg.evictEvery = 4;
        cfg.base.stashHighWater = 8;
        cfg.base.stashLowWater = 2;
        RingOram oram(cfg);
        EngineRun got;
        recordTrace(oram.storageForTest(), got.first);
        got.second = serveMix(oram);
        const mem::TrafficCounters c = oram.meter().counters();
        EXPECT_GT(c.reshuffles, 0u);
        EXPECT_GT(c.dummyReads, 0u);
        EXPECT_EQ(oram.auditRing(), "");
        return got;
    });
}

TEST(BackendEquivalence, RecursivePathOramIdenticalAcrossBackends)
{
    // The data tree runs on the backend under test; no storage sink
    // is exposed, so the payloads carry the comparison.
    expectIdenticalAcrossBackends([](const StorageConfig &scfg) {
        RecursiveConfig rcfg;
        rcfg.packing = 4;
        rcfg.directThreshold = 8;
        rcfg.seed = 11;
        RecursivePathOram oram(equivalenceConfig(scfg), rcfg);
        EXPECT_GE(oram.positionMap().oramLevels(), 1u);
        EngineRun got;
        got.second = serveMix(oram);
        EXPECT_EQ(oram.auditRecursive(), "");
        return got;
    });
}

} // namespace
} // namespace laoram::oram
