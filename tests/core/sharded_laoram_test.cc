/**
 * @file
 * ShardedLaoram tests: the splitter must be a deterministic bijection
 * and a sharded run must be an exact behavioural twin of serving each
 * shard's sub-trace through a standalone Laoram — the PR-1
 * determinism contract, extended per shard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/sharded_laoram.hh"
#include "obs/metrics.hh"
#include "train/table_set.hh"
#include "util/rng.hh"

namespace laoram::core {
namespace {

std::vector<oram::BlockId>
randomTrace(std::uint64_t n, std::uint64_t blocks, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<oram::BlockId> t;
    t.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        t.push_back(rng.nextBounded(blocks));
    return t;
}

ShardedLaoramConfig
shardedConfig(std::uint32_t shards, std::uint64_t blocks = 512,
              std::uint64_t window = 128)
{
    ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = blocks;
    cfg.engine.base.blockBytes = 64;
    cfg.engine.base.seed = 21;
    cfg.engine.superblockSize = 4;
    cfg.numShards = shards;
    cfg.pipeline.windowAccesses = window;
    return cfg;
}

TEST(ShardSplitter, HashedIsABijection)
{
    const std::uint64_t blocks = 4096;
    const auto split = ShardSplitter::hashed(blocks, 4);

    std::vector<std::uint64_t> perShard(4, 0);
    for (oram::BlockId g = 0; g < blocks; ++g) {
        const std::uint32_t s = split.shardOf(g);
        ASSERT_LT(s, 4u);
        const oram::BlockId local = split.localId(g);
        ASSERT_LT(local, split.shardBlocks(s));
        ASSERT_EQ(split.globalId(s, local), g);
        ++perShard[s];
    }

    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(perShard[s], split.shardBlocks(s));
        total += perShard[s];
        // The mixing hash keeps shards balanced well within 2x of
        // even for thousands of blocks.
        EXPECT_GT(perShard[s], blocks / 8);
        EXPECT_LT(perShard[s], blocks / 2);
    }
    EXPECT_EQ(total, blocks);
}

TEST(ShardSplitter, LocalIdsAreDenseAndOrderPreserving)
{
    const auto split = ShardSplitter::hashed(1000, 3);
    // Scanning globals in increasing order must yield each shard's
    // locals as 0, 1, 2, ... (dense, monotone).
    std::vector<oram::BlockId> nextLocal(3, 0);
    for (oram::BlockId g = 0; g < 1000; ++g) {
        const std::uint32_t s = split.shardOf(g);
        ASSERT_EQ(split.localId(g), nextLocal[s]);
        ++nextLocal[s];
    }
}

TEST(ShardSplitter, SplitTracePreservesPerShardOrder)
{
    const auto split = ShardSplitter::hashed(256, 4);
    const auto trace = randomTrace(2000, 256, 5);
    const auto sub = split.splitTrace(trace);

    ASSERT_EQ(sub.size(), 4u);
    std::uint64_t total = 0;
    for (const auto &s : sub)
        total += s.size();
    EXPECT_EQ(total, trace.size());

    // Replaying the logical trace and popping each access from its
    // shard's stream must consume every sub-trace in order.
    std::vector<std::size_t> cursor(4, 0);
    for (oram::BlockId g : trace) {
        const std::uint32_t s = split.shardOf(g);
        ASSERT_LT(cursor[s], sub[s].size());
        ASSERT_EQ(sub[s][cursor[s]], split.localId(g));
        ++cursor[s];
    }
}

TEST(ShardSplitter, FromAssignmentRoutesBlocksVerbatim)
{
    std::vector<std::uint32_t> assignment = {0, 0, 1, 1, 2, 2, 0, 1};
    const auto split =
        ShardSplitter::fromAssignment(assignment, 3);
    for (oram::BlockId g = 0; g < assignment.size(); ++g)
        EXPECT_EQ(split.shardOf(g), assignment[g]);
    EXPECT_EQ(split.shardBlocks(0), 3u);
    EXPECT_EQ(split.shardBlocks(1), 3u);
    EXPECT_EQ(split.shardBlocks(2), 2u);
}

/** Full observable engine state must match between two engines. */
void
expectEnginesIdentical(const Laoram &a, const Laoram &b)
{
    const auto &ca = a.meter().counters();
    const auto &cb = b.meter().counters();
    EXPECT_EQ(ca.logicalAccesses, cb.logicalAccesses);
    EXPECT_EQ(ca.pathReads, cb.pathReads);
    EXPECT_EQ(ca.pathWrites, cb.pathWrites);
    EXPECT_EQ(ca.dummyReads, cb.dummyReads);
    EXPECT_EQ(ca.bytesRead, cb.bytesRead);
    EXPECT_EQ(ca.bytesWritten, cb.bytesWritten);
    EXPECT_EQ(ca.stashPeak, cb.stashPeak);
    EXPECT_DOUBLE_EQ(a.meter().clock().nanoseconds(),
                     b.meter().clock().nanoseconds());
    EXPECT_EQ(a.stashSize(), b.stashSize());
    ASSERT_EQ(a.posmapForAudit().size(), b.posmapForAudit().size());
    for (oram::BlockId id = 0; id < a.posmapForAudit().size(); ++id)
        ASSERT_EQ(a.posmapForAudit().get(id),
                  b.posmapForAudit().get(id))
            << "posmap diverges at block " << id;
}

TEST(ShardedLaoram, FourShardsMatchStandalonePerShardEngines)
{
    // The acceptance contract: an N=4 sharded run leaves every block
    // payload byte-identical to serving each shard's sub-trace
    // through a standalone Laoram with the shard's derived config.
    const std::uint64_t blocks = 512;
    const auto trace = randomTrace(4000, blocks, 9);

    ShardedLaoramConfig cfg = shardedConfig(4, blocks);
    cfg.engine.base.payloadBytes = 32;
    ShardedLaoram sharded(cfg);
    sharded.setTouchCallback(
        [](oram::BlockId global, std::vector<std::uint8_t> &payload) {
            payload[0] = static_cast<std::uint8_t>(global * 5 + 3);
            payload[1] =
                static_cast<std::uint8_t>((global >> 8) ^ 0xA5);
        });
    sharded.runTrace(trace);
    sharded.setTouchCallback(nullptr);

    const ShardSplitter &split = sharded.splitter();
    const auto sub = split.splitTrace(trace);
    for (std::uint32_t s = 0; s < 4; ++s) {
        // Standalone reference over the shard's own config: serial
        // runTrace with lookaheadWindow == the pipeline window is the
        // PR-1 equivalence baseline.
        Laoram reference(sharded.shardEngineConfigFor(s));
        reference.setTouchCallback(
            [&split, s](oram::BlockId local,
                        std::vector<std::uint8_t> &payload) {
                const oram::BlockId global = split.globalId(s, local);
                payload[0] = static_cast<std::uint8_t>(global * 5 + 3);
                payload[1] =
                    static_cast<std::uint8_t>((global >> 8) ^ 0xA5);
            });
        reference.runTrace(sub[s]);
        reference.setTouchCallback(nullptr);

        expectEnginesIdentical(reference, sharded.shard(s));

        // Byte-identical payload readback for every block of the
        // shard (both engines keep evolving identically during the
        // readback itself).
        std::vector<std::uint8_t> bufA, bufB;
        for (oram::BlockId local = 0; local < split.shardBlocks(s);
             ++local) {
            reference.readBlock(local, bufA);
            sharded.shard(s).readBlock(local, bufB);
            ASSERT_EQ(bufA, bufB)
                << "payload diverges at shard " << s << " block "
                << local;
        }
    }
}

TEST(ShardedLaoram, DeterministicAcrossPoolInterleavings)
{
    // Pool scheduling varies run to run; per-shard ORAM state must
    // not. Also pins down that a capped pool (2 threads for 4
    // shards) serves every shard.
    const auto trace = randomTrace(2000, 512, 13);

    ShardedLaoramConfig cfg = shardedConfig(4);
    ShardedLaoram reference(cfg);
    reference.runTrace(trace);

    for (const std::uint32_t poolThreads : {1u, 2u, 0u}) {
        ShardedLaoramConfig capped = cfg;
        capped.servingThreads = poolThreads;
        ShardedLaoram engine(capped);
        engine.runTrace(trace);
        for (std::uint32_t s = 0; s < 4; ++s)
            expectEnginesIdentical(reference.shard(s),
                                   engine.shard(s));
    }
}

TEST(ShardedLaoram, AggregateReportSumsShards)
{
    const auto trace = randomTrace(3000, 512, 17);

    ShardedLaoram sharded(shardedConfig(4));
    const auto rep = sharded.runTrace(trace);

    ASSERT_EQ(rep.shards.size(), 4u);
    std::uint64_t windows = 0, accesses = 0, pathReads = 0;
    double maxSim = 0.0;
    for (const auto &sr : rep.shards) {
        windows += sr.pipeline.windows;
        accesses += sr.accesses;
        pathReads += sr.traffic.pathReads;
        maxSim = std::max(maxSim, sr.simNs);
    }
    EXPECT_EQ(rep.aggregate.windows, windows);
    EXPECT_EQ(accesses, trace.size());
    EXPECT_EQ(rep.traffic.pathReads, pathReads);
    EXPECT_EQ(rep.traffic.logicalAccesses, trace.size());
    EXPECT_DOUBLE_EQ(rep.simNs, maxSim);
    EXPECT_GT(rep.simTotalNs, rep.simNs);
    EXPECT_GT(rep.aggregate.wallTotalNs, 0.0);
    EXPECT_GE(rep.aggregate.prepHiddenFraction, 0.0);
    EXPECT_LE(rep.aggregate.prepHiddenFraction, 1.0);
    EXPECT_GE(rep.aggregate.measuredPrepHiddenFraction, 0.0);
    EXPECT_LE(rep.aggregate.measuredPrepHiddenFraction, 1.0);

    // Live aggregate counters match the run deltas (fresh engines).
    const auto total = sharded.totalCounters();
    EXPECT_EQ(total.logicalAccesses, rep.traffic.logicalAccesses);
    EXPECT_EQ(total.pathReads, rep.traffic.pathReads);
}

TEST(ShardedLaoram, ShardingReducesConcurrentServeTime)
{
    // The scaling claim behind bench_shard_scaling, in miniature:
    // four shards split the stream four ways over shallower trees,
    // so the max-over-shards simulated serve time drops well below
    // the single-tree time.
    const std::uint64_t blocks = 2048;
    const auto trace = randomTrace(8000, blocks, 19);

    ShardedLaoram one(shardedConfig(1, blocks, 512));
    const auto repOne = one.runTrace(trace);
    ShardedLaoram four(shardedConfig(4, blocks, 512));
    const auto repFour = four.runTrace(trace);

    EXPECT_LT(repFour.simNs, repOne.simNs);
}

TEST(ShardedLaoram, TableSetPlanRoutesWholeTables)
{
    const train::TableSet tables({1000, 600, 400, 50, 50});
    const auto plan = tables.shardPlan(2);
    ASSERT_EQ(plan.size(), 5u);

    // LPT: 1000+50 vs 600+400+50 — loads balance to 1050/1050.
    std::vector<std::uint64_t> load(2, 0);
    for (std::uint64_t t = 0; t < plan.size(); ++t) {
        ASSERT_LT(plan[t], 2u);
        load[plan[t]] += tables.tableRows(t);
    }
    EXPECT_EQ(load[0], 1050u);
    EXPECT_EQ(load[1], 1050u);

    const auto assignment = tables.blockShardAssignment(plan);
    ASSERT_EQ(assignment.size(), tables.totalBlocks());
    const auto split = ShardSplitter::fromAssignment(assignment, 2);
    for (std::uint64_t t = 0; t < tables.numTables(); ++t) {
        for (std::uint64_t row : {std::uint64_t{0},
                                  tables.tableRows(t) - 1}) {
            EXPECT_EQ(split.shardOf(tables.flatten(t, row)), plan[t])
                << "table " << t << " row " << row
                << " not routed with its table";
        }
    }
}

/** pipeline.lanes_active as the registry reads it now. */
double
lanesActive()
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto &v : snap.values)
        if (v.name == "pipeline.lanes_active")
            return v.value;
    return -1.0;
}

/** A lane whose first window fails, after noting the live lane count. */
class ThrowingLanes final : public ShardedServeSource, ServeSource
{
  public:
    ServeSource &shardSource(std::uint32_t) override { return *this; }

    bool
    nextWindow(SourceWindow &) override
    {
        seenActive.store(lanesActive());
        throw std::runtime_error("lane source failed");
    }

    std::atomic<double> seenActive{-1.0};
};

TEST(ShardedLaoram, LanesActiveDropsWhenALaneThrows)
{
    ShardedLaoram sharded(shardedConfig(2));
    EXPECT_EQ(lanesActive(), 0.0);
    ThrowingLanes source;
    EXPECT_THROW(sharded.serve(source), std::runtime_error);
    EXPECT_GE(source.seenActive.load(), 1.0);
    // The engine (and its level) outlives the failed run.
    EXPECT_EQ(lanesActive(), 0.0);
}

TEST(ShardedLaoram, ShardSeedsAreStableAndDistinct)
{
    const std::uint64_t base = 21;
    EXPECT_EQ(ShardedLaoram::shardSeed(base, 0),
              ShardedLaoram::shardSeed(base, 0));
    EXPECT_NE(ShardedLaoram::shardSeed(base, 0),
              ShardedLaoram::shardSeed(base, 1));
    EXPECT_NE(ShardedLaoram::shardSeed(base, 0),
              ShardedLaoram::shardSeed(base + 1, 0));
}

} // namespace
} // namespace laoram::core
