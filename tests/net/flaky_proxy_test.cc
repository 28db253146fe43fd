/**
 * @file
 * Wire-protocol fault-injection tests: an endpoint-mode
 * RemoteKvBackend driven through the FlakyProxy relay must survive
 * dropped connections, truncated response frames, black-holed
 * requests (via the response deadline) and delayed responses — and
 * finish byte-identically to an unfaulted run, because reconnect
 * replays the un-acked request tail and the node idempotently
 * discards already-applied mutations.
 *
 * Covers both layers: raw backend-level read-your-writes across a
 * reconnect (including the no-double-apply check against the server's
 * inner IoStats), and a full pipelined Laoram engine whose post-trace
 * payloads/posmap/stash are compared against a DRAM reference via the
 * shared EngineSnapshot helpers. Plus the bounded-retry fatal: when
 * the endpoint is truly gone, retries exhaust into the same clean
 * exit-1 as the non-recovering client.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "../common/slot_io.hh"
#include "../integration/engine_snapshot.hh"
#include "core/pipeline.hh"
#include "flaky_proxy.hh"
#include "storage/remote_backend.hh"
#include "storage/slot_backend.hh"
#include "util/rng.hh"

namespace laoram::net {
namespace {

using storage::BackendKind;
using storage::RemoteKvBackend;
using storage::RemoteKvServer;
using storage::StorageConfig;

constexpr std::uint64_t kSlots = 256;
constexpr std::uint64_t kRecBytes = 48;

std::unique_ptr<RemoteKvServer>
dramServer(std::uint64_t slots = kSlots,
           std::uint64_t recBytes = kRecBytes)
{
    return std::make_unique<RemoteKvServer>(
        storage::makeBackend(StorageConfig{}, slots, recBytes, 0),
        storage::RemoteKvConfig{});
}

/** Endpoint-mode client config with test-fast retry pacing. */
StorageConfig
dialConfig(const std::string &endpoint, std::int64_t timeoutMs = 0)
{
    StorageConfig scfg;
    scfg.kind = BackendKind::Remote;
    scfg.remote.endpoint = endpoint;
    scfg.remote.maxRetries = 6;
    scfg.remote.backoffBaseMs = 2;
    scfg.remote.backoffMaxMs = 40;
    scfg.remote.responseTimeoutMs = timeoutMs;
    return scfg;
}

std::vector<std::uint8_t>
record(std::uint8_t fill)
{
    std::vector<std::uint8_t> rec(kRecBytes);
    for (std::size_t i = 0; i < rec.size(); ++i)
        rec[i] = static_cast<std::uint8_t>(fill + i);
    return rec;
}

// --------------------------------------------- backend-level recovery

TEST(FlakyProxy, ReconnectPreservesReadYourWrites)
{
    auto server = dramServer();
    FaultPlan plan;
    plan.dropAfterRequests = 5; // mid-burst: Hello + a few writes
    FlakyProxy proxy(*server, plan);

    RemoteKvBackend client(dialConfig(proxy.endpoint()), kSlots,
                           kRecBytes, 0);
    for (std::uint64_t slot = 0; slot < 10; ++slot) {
        const auto rec = record(static_cast<std::uint8_t>(slot));
        slotio::write(client, slot, rec.data());
    }
    // Reads pipeline behind the replayed writes: every one must
    // observe its write even though the link died mid-window.
    std::vector<std::uint8_t> out(kRecBytes);
    for (std::uint64_t slot = 0; slot < 10; ++slot) {
        slotio::read(client, slot, out.data());
        EXPECT_EQ(out, record(static_cast<std::uint8_t>(slot)))
            << "slot " << slot;
    }
    EXPECT_EQ(proxy.faultsFired(), 1u);
    EXPECT_GE(proxy.connectionsServed(), 2u);
}

TEST(FlakyProxy, ReplayedWriteIsDiscardedNotAppliedTwice)
{
    auto server = dramServer();
    FaultPlan plan;
    // Forward Hello (#1) and the write (#2), then cut the link before
    // the write's ack can reach the client: the write is applied
    // server-side but un-acked client-side, so the reconnect replays
    // it and the session high-water mark must discard the duplicate.
    plan.dropAfterRequests = 2;
    FlakyProxy proxy(*server, plan);

    RemoteKvBackend client(dialConfig(proxy.endpoint()), kSlots,
                           kRecBytes, 0);
    const auto rec = record(0x21);
    slotio::write(client, 9, rec.data());
    client.flush(); // forces the replay + ack round-trip to finish

    std::vector<std::uint8_t> out(kRecBytes);
    slotio::read(client, 9, out.data());
    EXPECT_EQ(out, rec);
    EXPECT_EQ(proxy.faultsFired(), 1u);
    EXPECT_GE(proxy.connectionsServed(), 2u);
    // The sharp assertion: one write RPC reached the inner store,
    // not two — the replayed duplicate was acked without executing.
    EXPECT_EQ(server->inner().ioStats().slotsWritten, 1u);
}

TEST(FlakyProxy, BlackHoledRequestTimesOutAndRecovers)
{
    auto server = dramServer();
    FaultPlan plan;
    plan.blackholeRequest = 3; // Hello, write, then silence
    FlakyProxy proxy(*server, plan);

    // Without a response deadline the client would wait forever on
    // the black-holed request; the deadline converts the hang into
    // the reconnect path.
    RemoteKvBackend client(dialConfig(proxy.endpoint(),
                                      /*timeoutMs=*/150),
                           kSlots, kRecBytes, 0);
    const auto rec = record(0x44);
    slotio::write(client, 3, rec.data());
    client.flush(); // request #3: swallowed, times out, replays

    std::vector<std::uint8_t> out(kRecBytes);
    slotio::read(client, 3, out.data());
    EXPECT_EQ(out, rec);
    EXPECT_EQ(proxy.faultsFired(), 1u);
    EXPECT_GE(proxy.connectionsServed(), 2u);
}

TEST(FlakyProxy, TruncatedResponseIsLostNotDecoded)
{
    auto server = dramServer();
    FaultPlan plan;
    plan.truncateResponse = 3; // Hello ack, write ack, then half a read
    FlakyProxy proxy(*server, plan);

    RemoteKvBackend client(dialConfig(proxy.endpoint()), kSlots,
                           kRecBytes, 0);
    const auto rec = record(0x66);
    slotio::write(client, 5, rec.data());
    std::vector<std::uint8_t> out(kRecBytes, 0);
    slotio::read(client, 5, out.data()); // its response arrives cut in half
    EXPECT_EQ(out, rec);
    EXPECT_EQ(proxy.faultsFired(), 1u);
    EXPECT_GE(proxy.connectionsServed(), 2u);
}

/**
 * When the node is really gone (listener closed, server down), the
 * bounded retry budget exhausts into the same clean fatal as the
 * non-recovering self-hosted client: exit 1, pointed message, no
 * hang.
 */
TEST(FlakyProxyDeath, RetriesExhaustedFailFatally)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            auto server = dramServer();
            auto proxy = std::make_unique<FlakyProxy>(*server,
                                                      FaultPlan{});
            StorageConfig scfg = dialConfig(proxy->endpoint());
            scfg.remote.maxRetries = 1;
            scfg.remote.backoffBaseMs = 1;
            RemoteKvBackend client(scfg, kSlots, kRecBytes, 0);
            const auto rec = record(0x10);
            slotio::write(client, 0, rec.data());
            client.flush(); // healthy so far

            proxy.reset();      // listener gone: redials are refused
            server->shutdown(); // and so is the node

            std::vector<std::uint8_t> out(kRecBytes);
            slotio::read(client, 0, out.data()); // must fatal, not hang
        },
        ::testing::ExitedWithCode(1), "remote-KV connection lost");
}

// ------------------------------------------ engine-level differential

constexpr std::uint64_t kWindow = 24;
constexpr std::uint64_t kWindows = 6;

core::LaoramConfig
engineConfig(std::uint64_t seed)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = 96;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 32;
    cfg.base.encrypt = true;
    cfg.base.seed = seed;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = kWindow;
    return cfg;
}

std::vector<oram::BlockId>
randomTrace(std::uint64_t accesses, std::uint64_t numBlocks,
            std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> trace;
    trace.reserve(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        trace.push_back(rng.nextBounded(numBlocks));
    return trace;
}

void
fillPayloads(core::Laoram &engine, const core::LaoramConfig &cfg)
{
    std::vector<std::uint8_t> buf(cfg.base.payloadBytes);
    for (oram::BlockId id = 0; id < cfg.base.numBlocks; ++id) {
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(id * 131 + i * 7);
        engine.writeBlock(id, buf);
    }
}

core::PipelineConfig
pipelineConfig()
{
    core::PipelineConfig pc;
    pc.windowAccesses = kWindow;
    pc.prepThreads = 2;
    pc.queueDepth = 2;
    return pc;
}

enum class Fault
{
    Drop,
    Truncate,
    Blackhole,
    Delay,
};

const char *
faultName(Fault f)
{
    switch (f) {
      case Fault::Drop:
        return "Drop";
      case Fault::Truncate:
        return "Truncate";
      case Fault::Blackhole:
        return "Blackhole";
      case Fault::Delay:
        return "Delay";
    }
    return "?";
}

class FaultedTrace : public ::testing::TestWithParam<Fault>
{
};

/**
 * The conformance bar for every fault flavour: a pipelined engine
 * whose RPC stream is faulted mid-trace finishes with exactly the
 * payloads, position map, stash, meters and simulated clock of an
 * unfaulted DRAM reference — faults live strictly below the
 * determinism contract.
 */
TEST_P(FaultedTrace, EngineMatchesUnfaultedReferenceByteForByte)
{
    const Fault fault = GetParam();
    const std::uint64_t seed = core::diffSeed() + 71;
    const core::LaoramConfig cfg = engineConfig(seed);
    const auto trace =
        randomTrace(kWindow * kWindows, cfg.base.numBlocks, seed + 17);

    // Uninterrupted DRAM reference.
    core::Laoram reference(cfg);
    fillPayloads(reference, cfg);
    core::BatchPipeline(reference, pipelineConfig()).run(trace);
    const core::EngineSnapshot snap = core::snapshotOf(reference);

    // The node serves the geometry the engine's ServerStorage will
    // ask for: header + payload records over the full tree.
    const oram::TreeGeometry geom(cfg.base.numBlocks,
                                  cfg.base.blockBytes,
                                  oram::BucketProfile::uniform(4));
    auto server = dramServer(geom.totalSlots(),
                             16 + cfg.base.payloadBytes);

    FaultPlan plan;
    std::int64_t timeoutMs = 0;
    switch (fault) {
      case Fault::Drop:
        plan.dropAfterRequests = 40;
        break;
      case Fault::Truncate:
        plan.truncateResponse = 30;
        break;
      case Fault::Blackhole:
        plan.blackholeRequest = 35;
        timeoutMs = 200;
        break;
      case Fault::Delay:
        plan.delayResponsesMs = 1;
        break;
    }
    FlakyProxy proxy(*server, plan);

    {
        core::LaoramConfig pcfg = cfg;
        pcfg.base.storage = dialConfig(proxy.endpoint(), timeoutMs);
        core::Laoram engine(pcfg);
        fillPayloads(engine, pcfg);
        core::BatchPipeline(engine, pipelineConfig()).run(trace);
        core::expectMatchesSnapshot(snap, engine, faultName(fault));
    } // engine torn down while the relay is still up

    if (fault == Fault::Delay) {
        // A slow link is not a lost link: no fault, no reconnect.
        EXPECT_EQ(proxy.faultsFired(), 0u);
        EXPECT_EQ(proxy.connectionsServed(), 1u);
    } else {
        EXPECT_EQ(proxy.faultsFired(), 1u) << faultName(fault);
        EXPECT_GE(proxy.connectionsServed(), 2u) << faultName(fault);
    }
}

INSTANTIATE_TEST_SUITE_P(WireFaults, FaultedTrace,
                         ::testing::Values(Fault::Drop,
                                           Fault::Truncate,
                                           Fault::Blackhole,
                                           Fault::Delay),
                         [](const ::testing::TestParamInfo<Fault> &i) {
                             return faultName(i.param);
                         });

} // namespace
} // namespace laoram::net
