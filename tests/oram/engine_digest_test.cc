/**
 * @file
 * Trace-digest regression pins: every tree engine (PathORAM, static
 * and dynamic PrORAM, LAORAM through runTrace and through single
 * accesses with and without the hot cache, recursive PathORAM,
 * RingORAM) runs
 * one fixed mixed read/write trace, and three FNV-1a digests of the
 * run are compared against constants:
 *
 * - the adversary's-eye (slot, isWrite) sequence from the storage
 *   access sink, where the engine exposes storageForTest();
 * - the traffic counters pathReads, pathWrites, dummyReads,
 *   bytesRead and bytesWritten;
 * - every payload read back.
 *
 * One encrypted PathORAM leg also digests the raw at-rest ciphertext
 * of its DRAM tree, so the cipher's output bytes are pinned too.
 *
 * The determinism suites compare modes of the same code against each
 * other, so a refactor of the access step that changes every leg at
 * once passes them; these constants do not move unless the server
 * trace, the accounting or the served bytes do.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/laoram_client.hh"
#include "oram/path_oram.hh"
#include "oram/pro_oram.hh"
#include "oram/recursive_posmap.hh"
#include "oram/ring_oram.hh"
#include "util/rng.hh"

namespace laoram {
namespace {

constexpr std::uint64_t kBlocks = 128;
constexpr std::uint64_t kPayload = 16;

/** Running FNV-1a 64 over 64-bit words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const std::vector<std::uint8_t> &bytes)
    {
        add(bytes.size());
        for (std::uint8_t b : bytes)
            add(b);
    }
};

struct TraceOp
{
    oram::BlockId id;
    bool write;
    std::uint8_t fill;
};

/**
 * The fixed trace: a mix of group sweeps (so PrORAM groups merge and
 * superblock prefetches hit), a hot set (stash hits) and uniform ids;
 * a third of the operations are writes.
 */
std::vector<TraceOp>
mixedTrace()
{
    Rng rng(2024);
    std::vector<TraceOp> ops;
    while (ops.size() < 1500) {
        const std::uint64_t kind = rng.nextBounded(4);
        if (kind == 0) {
            const oram::BlockId base = rng.nextBounded(kBlocks / 4) * 4;
            for (oram::BlockId m = base; m < base + 4; ++m)
                ops.push_back({m, rng.nextBool(1.0 / 3),
                               static_cast<std::uint8_t>(ops.size())});
        } else {
            const oram::BlockId id = kind == 1 ? rng.nextBounded(16)
                                               : rng.nextBounded(kBlocks);
            ops.push_back({id, rng.nextBool(1.0 / 3),
                           static_cast<std::uint8_t>(ops.size())});
        }
    }
    return ops;
}

oram::EngineConfig
baseConfig()
{
    oram::EngineConfig cfg;
    cfg.numBlocks = kBlocks;
    cfg.blockBytes = 64;
    cfg.payloadBytes = kPayload;
    // Small buckets and a low threshold so the background-eviction
    // drain runs many times in the trace.
    cfg.profile = oram::BucketProfile::uniform(3);
    cfg.stashHighWater = 3;
    cfg.stashLowWater = 1;
    cfg.seed = 31;
    return cfg;
}

struct Digests
{
    std::uint64_t sink = 0;
    std::uint64_t counters = 0;
    std::uint64_t payloads = 0;
};

/** Install a digesting access sink on @p engine's storage. */
template <typename Engine>
void
recordSink(Engine &engine, Digest &sink)
{
    engine.storageForTest().setAccessSink(
        [&sink](std::uint64_t slot, bool write) {
            sink.add(slot);
            sink.add(write ? 1 : 0);
        });
}

std::uint64_t
countersDigest(const oram::OramEngine &engine)
{
    const mem::TrafficCounters c = engine.meter().counters();
    Digest d;
    d.add(c.pathReads);
    d.add(c.pathWrites);
    d.add(c.dummyReads);
    d.add(c.bytesRead);
    d.add(c.bytesWritten);
    return d.h;
}

/** Read every block back into @p payloads. */
void
readBack(oram::OramEngine &engine, Digest &payloads)
{
    std::vector<std::uint8_t> out;
    for (oram::BlockId id = 0; id < kBlocks; ++id) {
        engine.readBlock(id, out);
        payloads.add(out);
    }
}

/**
 * Serve the mixed trace through single access() calls, then read
 * every block back. @p beforeOp runs ahead of each operation.
 */
template <typename SinkOwner, typename BeforeOp>
Digests
runAccesses(oram::OramEngine &engine, SinkOwner *sinkOwner,
            BeforeOp beforeOp)
{
    Digest sink, payloads;
    if (sinkOwner)
        recordSink(*sinkOwner, sink);
    std::vector<std::uint8_t> out;
    std::size_t i = 0;
    for (const TraceOp &op : mixedTrace()) {
        beforeOp(i++, op);
        if (op.write) {
            engine.writeBlock(op.id,
                              std::vector<std::uint8_t>(kPayload, op.fill));
        } else {
            engine.readBlock(op.id, out);
            payloads.add(out);
        }
    }
    readBack(engine, payloads);
    // The sink refers to this frame's digest; later audits read slots.
    if (sinkOwner)
        sinkOwner->storageForTest().setAccessSink(nullptr);
    return {sink.h, countersDigest(engine), payloads.h};
}

template <typename SinkOwner>
Digests
runAccesses(oram::OramEngine &engine, SinkOwner *sinkOwner)
{
    return runAccesses(engine, sinkOwner,
                       [](std::size_t, const TraceOp &) {});
}

void
expectPinned(const Digests &got, std::uint64_t sink,
             std::uint64_t counters, std::uint64_t payloads)
{
    EXPECT_EQ(got.sink, sink) << std::hex << "sink 0x" << got.sink;
    EXPECT_EQ(got.counters, counters)
        << std::hex << "counters 0x" << got.counters;
    EXPECT_EQ(got.payloads, payloads)
        << std::hex << "payloads 0x" << got.payloads;
}

TEST(EngineDigest, PathOram)
{
    oram::PathOram engine(baseConfig());
    expectPinned(runAccesses(engine, &engine), 0x8b7bd4f638437b9dull,
                 0x25f4433a51cbc2cbull, 0xc19d7d62107116a5ull);
}

TEST(EngineDigest, StaticSuperblockSizeOne)
{
    oram::StaticSuperblockConfig cfg{baseConfig(), 1};
    oram::StaticSuperblockOram engine(cfg);
    expectPinned(runAccesses(engine, &engine), 0x8b7bd4f638437b9dull,
                 0x25f4433a51cbc2cbull, 0xc19d7d62107116a5ull);
}

TEST(EngineDigest, StaticSuperblockSizeFour)
{
    oram::StaticSuperblockConfig cfg{baseConfig(), 4};
    oram::StaticSuperblockOram engine(cfg);
    expectPinned(runAccesses(engine, &engine), 0x4bb8552b98171555ull,
                 0xeec7a32ead83c577ull, 0xc19d7d62107116a5ull);
}

TEST(EngineDigest, DynamicProOram)
{
    oram::ProOramConfig cfg;
    cfg.base = baseConfig();
    cfg.groupSize = 4;
    cfg.window = 16;
    oram::ProOram engine(cfg);
    const Digests got = runAccesses(engine, &engine);
    // The trace must exercise the merge and fused-group paths.
    EXPECT_GT(engine.totalMerges(), 0u);
    EXPECT_GT(engine.totalSplits(), 0u);
    expectPinned(got, 0xdd9ca2d2c1310035ull,
                 0xd4ee59ed87fbbc0cull, 0xc19d7d62107116a5ull);
}

core::LaoramConfig
laoramConfig()
{
    core::LaoramConfig cfg;
    cfg.base = baseConfig();
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 256;
    return cfg;
}

TEST(EngineDigest, LaoramRunTrace)
{
    core::Laoram engine(laoramConfig());
    Digest sink, payloads;
    recordSink(engine, sink);
    engine.setTouchCallback(
        [](oram::BlockId id, std::vector<std::uint8_t> &payload) {
            payload[id % payload.size()] += static_cast<std::uint8_t>(id);
            payload[0] ^= 0x5A;
        });
    std::vector<oram::BlockId> trace;
    for (const TraceOp &op : mixedTrace())
        trace.push_back(op.id);
    engine.runTrace(trace);
    engine.setTouchCallback(nullptr);
    readBack(engine, payloads);
    expectPinned({sink.h, countersDigest(engine), payloads.h},
                 0x932ff60de4096acull, 0x86ad189ae8fe56aaull,
                 0xe632edfd2d5f6d33ull);
}

TEST(EngineDigest, LaoramSingleAccess)
{
    core::Laoram engine(laoramConfig());
    expectPinned(runAccesses(engine, &engine), 0x8b7bd4f638437b9dull,
                 0x25f4433a51cbc2cbull, 0xc19d7d62107116a5ull);
}

TEST(EngineDigest, LaoramSingleAccessHotCache)
{
    core::LaoramConfig cfg = laoramConfig();
    cfg.cache.capacityBytes = 16 * kPayload;
    core::Laoram engine(cfg);
    // Every fifth operation first lands a frontend admission-time
    // update on its row, so the access that follows sees a Flushed
    // outcome whenever the row is resident.
    const Digests got = runAccesses(
        engine, &engine, [&](std::size_t i, const TraceOp &op) {
            if (i % 5 == 0)
                engine.hotCache()->tryServeAtAdmission(
                    op.id, [](std::vector<std::uint8_t> &row) {
                        row[1] += 3;
                    });
        });
    const cache::CacheStats stats = engine.hotCache()->stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.writebackCoalesced, 0u);
    expectPinned(got, 0x8b7bd4f638437b9dull,
                 0x25f4433a51cbc2cbull, 0xc5023183b3a7f198ull);
}

TEST(EngineDigest, RecursivePathOram)
{
    oram::RecursiveConfig rcfg;
    rcfg.packing = 4;
    rcfg.directThreshold = 8;
    rcfg.seed = 11;
    oram::RecursivePathOram engine(baseConfig(), rcfg);
    ASSERT_GE(engine.positionMap().oramLevels(), 1u);
    const Digests got =
        runAccesses(engine, static_cast<oram::TreeOramBase *>(nullptr));
    EXPECT_EQ(got.sink, Digest{}.h) << "no access sink installed";
    expectPinned(got, Digest{}.h, 0x50c042ecf4817ba3ull,
                 0xc19d7d62107116a5ull);
}

TEST(EngineDigest, EncryptedPathOramCiphertext)
{
    // The at-rest bytes of an encrypted DRAM tree after the trace: a
    // change to the cipher, the nonce layout, the epoch order or the
    // record encoding moves this digest, even where every decrypted
    // payload stays the same. 116-B records span one whole keystream
    // block and a 52-B tail.
    oram::EngineConfig cfg = baseConfig();
    cfg.encrypt = true;
    cfg.payloadBytes = 100;
    oram::PathOram engine(cfg);
    const Digests got = runAccesses(engine, &engine);
    expectPinned(got, 0x8b7bd4f638437b9dull, 0x25f4433a51cbc2cbull,
                 0x3984e4d660ecc325ull);

    const oram::ServerStorage &storage = engine.storageForAudit();
    const std::uint8_t *base = storage.backend().mappedBase();
    ASSERT_NE(base, nullptr) << "DRAM trees are addressable";
    Digest atRest;
    atRest.add(std::vector<std::uint8_t>(
        base, base + storage.slots() * storage.recordBytes()));
    EXPECT_EQ(atRest.h, 0x48efef23492b5e23ull)
        << std::hex << "at rest 0x" << atRest.h;
}

TEST(EngineDigest, RingOram)
{
    // Default water marks: the high-water drain never runs, so the
    // leg pins the sparse reads, the every-A evictions and the early
    // reshuffles.
    oram::RingOramConfig cfg;
    cfg.base = baseConfig();
    cfg.base.stashHighWater = oram::EngineConfig{}.stashHighWater;
    cfg.base.stashLowWater = oram::EngineConfig{}.stashLowWater;
    cfg.realZ = 3;
    cfg.dummies = 2;
    cfg.evictEvery = 3;
    oram::RingOram engine(cfg);
    const Digests got = runAccesses(engine, &engine);
    EXPECT_GT(engine.meter().counters().reshuffles, 0u);
    EXPECT_EQ(engine.meter().counters().dummyReads, 0u);
    EXPECT_EQ(engine.auditRing(), "");
    expectPinned(got, 0xd8fc244e9b99ab72ull, 0x5376cb5a1f64081aull,
                 0xc19d7d62107116a5ull);
}

} // namespace
} // namespace laoram
