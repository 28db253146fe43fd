/**
 * @file
 * Remote-KV backend tests beyond the shared conformance suite: the
 * async write window, shaper determinism (same seed + latency config
 * => identical IoStats counts), handshake validation, persistent
 * (mmap-inner) node reopen over RPC, engine-level equivalence against
 * DRAM, the per-backend live levels, and the kill-server-mid-trace
 * error path (clean fatal, no hang).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/slot_io.hh"
#include "../common/temp_dir.hh"
#include "obs/metrics.hh"
#include "oram/path_oram.hh"
#include "oram/server_storage.hh"
#include "storage/dram_backend.hh"
#include "storage/remote_backend.hh"
#include "util/rng.hh"

namespace laoram::storage {
namespace {

constexpr std::uint64_t kSlots = 256;
constexpr std::uint64_t kRecBytes = 48;

std::unique_ptr<RemoteKvServer>
dramServer(const RemoteKvConfig &shaping = {})
{
    return std::make_unique<RemoteKvServer>(
        std::make_unique<DramBackend>(kSlots, kRecBytes), shaping);
}

std::vector<std::uint8_t>
pattern(std::uint8_t fill)
{
    std::vector<std::uint8_t> rec(kRecBytes);
    for (std::size_t i = 0; i < rec.size(); ++i)
        rec[i] = static_cast<std::uint8_t>(fill + i);
    return rec;
}

TEST(RemoteBackend, RoundTripsThroughAttachedServer)
{
    auto server = dramServer();
    RemoteKvBackend client(server->connectClient(), kSlots, kRecBytes,
                           RemoteKvConfig{});

    const auto recA = pattern(0x10);
    const auto recB = pattern(0x60);
    const std::uint64_t slots[2] = {3, 200};
    std::vector<std::uint8_t> out(2 * kRecBytes, 0);
    std::vector<std::uint8_t> in(recA);
    in.insert(in.end(), recB.begin(), recB.end());

    client.writeSlots(slots, 2, in.data());
    client.readSlots(slots, 2, out.data());
    EXPECT_EQ(std::memcmp(out.data(), recA.data(), kRecBytes), 0);
    EXPECT_EQ(std::memcmp(out.data() + kRecBytes, recB.data(),
                          kRecBytes),
              0);

    // The write really landed on the server's inner store.
    client.flush();
    EXPECT_EQ(server->inner().ioStats().slotsWritten, 2u);
}

TEST(RemoteBackend, AsyncWriteWindowStaysBoundedAndFlushDrains)
{
    RemoteKvConfig cfg;
    cfg.windowDepth = 3;
    // Slow the node down so writes genuinely pile up in flight.
    cfg.latencyNs = 2'000'000; // 2 ms per RPC
    auto server = dramServer(cfg);
    RemoteKvBackend client(server->connectClient(), kSlots, kRecBytes,
                           cfg);

    const auto rec = pattern(0x42);
    for (std::uint64_t slot = 0; slot < 10; ++slot) {
        slotio::write(client, slot, rec.data());
        EXPECT_LE(client.inFlightWrites(), cfg.windowDepth);
    }
    EXPECT_GE(client.inFlightWrites(), 1u);

    client.flush();
    EXPECT_EQ(client.inFlightWrites(), 0u);

    // Every write is visible after the flush barrier.
    std::vector<std::uint8_t> out(kRecBytes);
    for (std::uint64_t slot = 0; slot < 10; ++slot) {
        slotio::read(client, slot, out.data());
        EXPECT_EQ(out, rec) << "slot " << slot;
    }
}

/** @p name's value in the registry now (-1 when absent). */
double
liveValue(const std::string &name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &v : snap.values)
        if (v.name == name)
            return v.value;
    return -1.0;
}

TEST(RemoteBackend, InflightWritesSumOverBackends)
{
    RemoteKvConfig cfg;
    cfg.windowDepth = 8;
    auto serverA = dramServer(cfg);
    auto serverB = dramServer(cfg);
    auto a = std::make_unique<RemoteKvBackend>(
        serverA->connectClient(), kSlots, kRecBytes, cfg);
    auto b = std::make_unique<RemoteKvBackend>(
        serverB->connectClient(), kSlots, kRecBytes, cfg);
    // Each handshake ran on its node's frame loop, so both are live.
    EXPECT_EQ(liveValue("node.active_connections"), 2.0);

    // Writes are only harvested by a later read or flush, so all of
    // them stay parked in their backend's window.
    const auto rec = pattern(0x33);
    for (std::uint64_t slot = 0; slot < 2; ++slot)
        slotio::write(*a, slot, rec.data());
    for (std::uint64_t slot = 0; slot < 3; ++slot)
        slotio::write(*b, slot, rec.data());
    ASSERT_EQ(a->inFlightWrites(), 2u);
    ASSERT_EQ(b->inFlightWrites(), 3u);
    EXPECT_EQ(liveValue("storage.remote.inflight_writes"), 5.0);

    a->flush();
    EXPECT_EQ(liveValue("storage.remote.inflight_writes"), 3.0);
    b.reset();
    EXPECT_EQ(liveValue("storage.remote.inflight_writes"), 0.0);
    a.reset();
    serverA.reset();
    serverB.reset();
    EXPECT_EQ(liveValue("node.active_connections"), 0.0);
}

TEST(RemoteBackend, ReadObservesAllPendingWrites)
{
    RemoteKvConfig cfg;
    cfg.windowDepth = 8;
    cfg.latencyNs = 1'000'000;
    auto server = dramServer(cfg);
    RemoteKvBackend client(server->connectClient(), kSlots, kRecBytes,
                           cfg);

    // Several async writes to the same slot, then an immediate read:
    // the ordered stream must deliver the *last* write's bytes even
    // though none of the writes was awaited explicitly.
    for (std::uint8_t round = 0; round < 5; ++round) {
        const auto rec = pattern(round);
        const std::uint64_t slot = 7;
        client.writeSlots(&slot, 1, rec.data());
    }
    std::vector<std::uint8_t> out(kRecBytes);
    slotio::read(client, 7, out.data());
    EXPECT_EQ(out, pattern(4));
}

void
putU64(std::vector<std::uint8_t> &body, std::uint64_t v)
{
    const std::size_t at = body.size();
    body.resize(at + sizeof(v));
    std::memcpy(body.data() + at, &v, sizeof(v));
}

/**
 * Send the hand-crafted frame @p body on @p fd and expect the node to
 * drop the connection without replying: the next read observes EOF.
 * Then check the node survives and still serves a well-behaved
 * client.
 */
void
expectDroppedWithoutReply(RemoteKvServer &server, int fd,
                          const std::vector<std::uint8_t> &body)
{
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(len)));
    ASSERT_EQ(::send(fd, body.data(), body.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(body.size()));

    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);

    RemoteKvBackend ok(server.connectClient(), kSlots, kRecBytes,
                       RemoteKvConfig{});
    const auto rec = pattern(0x05);
    slotio::write(ok, 0, rec.data());
    ok.flush();
}

TEST(RemoteBackend, ServerDropsConnectionOnOutOfRangeSlot)
{
    auto server = dramServer();
    const int fd = server->connectClient();

    // Hand-crafted ReadSlots frame asking for slot kSlots (one past
    // the end): wire input is untrusted, so the node must drop the
    // connection — not crash, not serve out-of-bounds bytes.
    std::vector<std::uint8_t> body;
    body.push_back(2);    // RemoteOp::ReadSlots
    putU64(body, 1);      // seq
    putU64(body, 1);      // n = 1 slot
    putU64(body, kSlots); // out of range
    expectDroppedWithoutReply(*server, fd, body);
}

TEST(RemoteBackend, ServerDropsSixteenByteHello)
{
    auto server = dramServer();
    const int fd = server->connectClient();

    // A Hello is exactly (slots, recordBytes, sessionId); the 16-byte
    // form without a sessionId is a corrupt stream.
    std::vector<std::uint8_t> body;
    body.push_back(1);       // RemoteOp::Hello
    putU64(body, 0);         // seq
    putU64(body, kSlots);    // slots
    putU64(body, kRecBytes); // recordBytes, no sessionId
    expectDroppedWithoutReply(*server, fd, body);
}

TEST(RemoteBackend, HandshakeRejectsGeometryMismatch)
{
    auto server = dramServer();
    EXPECT_THROW(RemoteKvBackend(server->connectClient(), kSlots + 1,
                                 kRecBytes, RemoteKvConfig{}),
                 std::runtime_error);
    EXPECT_THROW(RemoteKvBackend(server->connectClient(), kSlots,
                                 kRecBytes + 8, RemoteKvConfig{}),
                 std::runtime_error);
    // The node survives rejected clients and still serves good ones.
    RemoteKvBackend ok(server->connectClient(), kSlots, kRecBytes,
                       RemoteKvConfig{});
    const auto rec = pattern(0x01);
    slotio::write(ok, 0, rec.data());
    ok.flush();
}

/**
 * Same seed + same shaper config => identical IoStats *counts*; and a
 * different shaper setting changes only measured nanoseconds, never a
 * count. This is what makes shaped-remote bench runs comparable
 * across hosts.
 */
TEST(RemoteBackend, ShaperChangesOnlyMeasuredTimeNeverCounts)
{
    auto countsOf = [](const RemoteKvConfig &shaping) {
        oram::EngineConfig cfg;
        cfg.numBlocks = 128;
        cfg.blockBytes = 64;
        cfg.payloadBytes = 16;
        cfg.encrypt = true;
        cfg.seed = 11;
        cfg.storage.kind = BackendKind::Remote;
        cfg.storage.remote = shaping;
        oram::PathOram oram(cfg);
        Rng rng(23);
        std::vector<std::uint8_t> buf;
        for (int i = 0; i < 300; ++i) {
            const oram::BlockId id = rng.nextBounded(128);
            if (rng.nextBool(0.5)) {
                std::vector<std::uint8_t> data(
                    16, static_cast<std::uint8_t>(i));
                oram.writeBlock(id, data);
            } else {
                oram.readBlock(id, buf);
            }
        }
        return oram.storageForAudit().ioStats();
    };

    RemoteKvConfig unshaped;
    RemoteKvConfig shaped;
    shaped.latencyNs = 30'000;
    shaped.bytesPerSec = 200'000'000;
    shaped.windowDepth = 2;

    const IoStats a = countsOf(unshaped);
    const IoStats b = countsOf(unshaped);
    const IoStats c = countsOf(shaped);

    // Determinism: byte-for-byte identical ledger counts per config.
    EXPECT_EQ(a.readOps, b.readOps);
    EXPECT_EQ(a.writeOps, b.writeOps);
    EXPECT_EQ(a.slotsRead, b.slotsRead);
    EXPECT_EQ(a.slotsWritten, b.slotsWritten);
    EXPECT_EQ(a.bytesRead, b.bytesRead);
    EXPECT_EQ(a.bytesWritten, b.bytesWritten);
    EXPECT_EQ(a.flushes, b.flushes);

    // Shaping invariance: counts match the unshaped run exactly.
    EXPECT_EQ(a.readOps, c.readOps);
    EXPECT_EQ(a.writeOps, c.writeOps);
    EXPECT_EQ(a.slotsRead, c.slotsRead);
    EXPECT_EQ(a.slotsWritten, c.slotsWritten);
    EXPECT_EQ(a.bytesRead, c.bytesRead);
    EXPECT_EQ(a.bytesWritten, c.bytesWritten);
    EXPECT_EQ(a.flushes, c.flushes);

    // Every synchronous read waited at least the shaped latency.
    EXPECT_GE(c.readNs,
              static_cast<std::int64_t>(c.readOps) * shaped.latencyNs);
}

TEST(RemoteBackend, PersistentNodeReopensByteIdentically)
{
    const TestTempDir tmp;
    const std::string path = tmp.path("node.tree");

    StorageConfig scfg;
    scfg.kind = BackendKind::Remote;
    scfg.path = path; // mmap-inner node: the tree survives the server
    constexpr std::uint64_t kPayload = 24;
    constexpr std::uint64_t kSeed = 5;
    oram::TreeGeometry geom(64, 64, oram::BucketProfile::uniform(4));

    Rng rng(9);
    std::vector<oram::StoredBlock> expect(geom.totalSlots());
    {
        oram::ServerStorage s(geom, kPayload, /*encrypt=*/true, kSeed,
                              scfg);
        for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
            std::vector<std::uint8_t> payload(kPayload);
            for (auto &b : payload)
                b = static_cast<std::uint8_t>(rng.nextBounded(256));
            slotio::write(s, slot, rng.nextBounded(1 << 20),
                          rng.nextBounded(64), payload.data(),
                          payload.size());
        }
        for (std::uint64_t slot = 0; slot < s.slots(); ++slot)
            slotio::read(s, slot, expect[slot]);
        s.flush();
    } // epochs persisted over WriteMeta, node torn down

    scfg.keepExisting = true;
    oram::ServerStorage s(geom, kPayload, true, kSeed, scfg);
    EXPECT_TRUE(s.reopened());
    oram::StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); ++slot) {
        slotio::read(s, slot, b);
        EXPECT_EQ(b.id, expect[slot].id) << "slot " << slot;
        EXPECT_EQ(b.leaf, expect[slot].leaf) << "slot " << slot;
        EXPECT_EQ(b.payload, expect[slot].payload) << "slot " << slot;
    }
}

/**
 * Backend choice must be invisible to the ORAM: the same engine over
 * DRAM and over the RPC link produces identical payloads AND an
 * identical physical access trace.
 */
TEST(RemoteBackend, PathOramIdenticalToDramBackend)
{
    auto run = [](const StorageConfig &scfg) {
        oram::EngineConfig cfg;
        cfg.numBlocks = 128;
        cfg.blockBytes = 64;
        cfg.payloadBytes = 32;
        cfg.encrypt = true;
        cfg.seed = 2026;
        cfg.storage = scfg;
        oram::PathOram oram(cfg);

        std::vector<std::pair<std::uint64_t, bool>> trace;
        oram.storageForTest().setAccessSink(
            [&](std::uint64_t slot, bool write) {
                trace.emplace_back(slot, write);
            });

        Rng rng(3);
        std::vector<std::uint8_t> payloads;
        for (int i = 0; i < 300; ++i) {
            const oram::BlockId id = rng.nextBounded(128);
            if (rng.nextBounded(2) == 0) {
                std::vector<std::uint8_t> data(
                    32, static_cast<std::uint8_t>(i));
                oram.writeBlock(id, data);
            } else {
                std::vector<std::uint8_t> out;
                oram.readBlock(id, out);
                payloads.insert(payloads.end(), out.begin(),
                                out.end());
            }
        }
        return std::make_pair(std::move(trace), std::move(payloads));
    };

    StorageConfig dram;
    StorageConfig remote;
    remote.kind = BackendKind::Remote;
    remote.remote.latencyNs = 1000;

    const auto [dramTrace, dramPayloads] = run(dram);
    const auto [remoteTrace, remotePayloads] = run(remote);
    EXPECT_EQ(dramTrace, remoteTrace);
    EXPECT_EQ(dramPayloads, remotePayloads);
}

/**
 * A server that dies mid-trace must end the run with a clean fatal
 * (exit 1 + a pointed message), never a hang or silent corruption.
 * Threadsafe death-test style: the statement re-executes in a fresh
 * process, so the server threads never mix with the fork.
 */
TEST(RemoteServerLoss, KillServerMidTraceFailsFastNotHangs)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            auto server = dramServer();
            RemoteKvBackend client(server->connectClient(), kSlots,
                                   kRecBytes, RemoteKvConfig{});
            const auto rec = pattern(0x33);
            slotio::write(client, 1, rec.data());
            client.flush(); // healthy so far

            server->shutdown(); // the node dies mid-trace

            std::vector<std::uint8_t> out(kRecBytes);
            slotio::read(client, 1, out.data()); // must fatal, not hang
        },
        ::testing::ExitedWithCode(1), "remote-KV connection lost");
}

} // namespace
} // namespace laoram::storage
