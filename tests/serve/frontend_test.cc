/**
 * @file
 * Online serving frontend: session submission, cross-session
 * coalescing into look-ahead windows, read-your-writes, admission
 * policies, latency reporting, and lifecycle errors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "serve/frontend.hh"

namespace laoram::serve {
namespace {

constexpr std::uint64_t kBlocks = 1 << 9;
constexpr std::uint64_t kPayload = 16;

core::ShardedLaoramConfig
engineConfig(std::uint32_t numShards, std::uint64_t windowAccesses)
{
    core::ShardedLaoramConfig cfg;
    cfg.engine.base.numBlocks = kBlocks;
    cfg.engine.base.payloadBytes = kPayload;
    cfg.engine.base.seed = 99;
    cfg.engine.superblockSize = 4;
    cfg.numShards = numShards;
    cfg.pipeline.windowAccesses = windowAccesses;
    cfg.pipeline.mode = core::PipelineMode::Concurrent;
    return cfg;
}

std::vector<std::uint8_t>
bytesFor(std::uint8_t tag)
{
    std::vector<std::uint8_t> b(kPayload);
    std::iota(b.begin(), b.end(), tag);
    return b;
}

TEST(ServeFrontend, UpdateThenLookupInOneBatchReadsOwnWrite)
{
    core::ShardedLaoram engine(engineConfig(2, 8));
    ServeFrontend frontend(engine);
    Session session = frontend.session();

    Batch batch;
    batch.ops.push_back(Op::update(7, bytesFor(11)));
    batch.ops.push_back(Op::lookup(7));
    std::future<BatchResult> fut = session.submit(std::move(batch));

    frontend.start();
    frontend.flush();
    const BatchResult res = fut.get();
    ASSERT_EQ(res.results.size(), 2u);
    EXPECT_EQ(res.results[0].id, 7u);
    EXPECT_TRUE(res.results[0].payload.empty()); // updates carry none
    EXPECT_EQ(res.results[1].payload, bytesFor(11));
    frontend.stop();
}

TEST(ServeFrontend, LaterBatchSeesEarlierUpdateAndStatePersists)
{
    core::ShardedLaoram engine(engineConfig(2, 8));
    ServeFrontend frontend(engine);
    Session session = frontend.session();
    frontend.start();

    Batch upd;
    for (BlockId id = 0; id < 6; ++id)
        upd.ops.push_back(
            Op::update(id, bytesFor(static_cast<std::uint8_t>(id))));
    std::future<BatchResult> ufut = session.submit(std::move(upd));
    frontend.flush();
    ufut.get();

    Batch look;
    for (BlockId id = 0; id < 6; ++id)
        look.ops.push_back(Op::lookup(id));
    std::future<BatchResult> lfut = session.submit(std::move(look));
    frontend.flush();
    const BatchResult res = lfut.get();
    for (BlockId id = 0; id < 6; ++id)
        EXPECT_EQ(res.results[id].payload,
                  bytesFor(static_cast<std::uint8_t>(id)))
            << "block " << id;
    frontend.stop();

    // The writes are durable engine state, visible to offline reads.
    for (BlockId id = 0; id < 6; ++id) {
        std::vector<std::uint8_t> out;
        engine.shard(engine.splitter().shardOf(id))
            .readBlock(engine.splitter().localId(id), out);
        EXPECT_EQ(out, bytesFor(static_cast<std::uint8_t>(id)));
    }
}

TEST(ServeFrontend, ConcurrentSessionsAllCompleteWithLatencyReport)
{
    constexpr int kSessions = 4;
    constexpr int kBatches = 8;
    constexpr int kOpsPerBatch = 16;

    core::ShardedLaoram engine(engineConfig(2, 32));
    ServeFrontend frontend(engine);
    frontend.start();

    std::vector<std::thread> clients;
    std::atomic<std::uint64_t> completedOps{0};
    for (int c = 0; c < kSessions; ++c) {
        clients.emplace_back([&, c] {
            Session session = frontend.session();
            for (int b = 0; b < kBatches; ++b) {
                Batch batch;
                for (int i = 0; i < kOpsPerBatch; ++i) {
                    const BlockId id =
                        (c * 131 + b * 17 + i * 7) % kBlocks;
                    if (i % 3 == 0)
                        batch.ops.push_back(Op::update(
                            id, bytesFor(static_cast<std::uint8_t>(c))));
                    else
                        batch.ops.push_back(Op::lookup(id));
                }
                std::future<BatchResult> fut =
                    session.submit(std::move(batch));
                if (b % 2 == 1) {
                    // Wait for half the batches in-line: coalescing
                    // must make progress without an explicit flush
                    // once enough traffic fills windows — but this
                    // client's pending ops may sit in a partial
                    // window, so cut it.
                    frontend.flush();
                    const BatchResult res = fut.get();
                    completedOps += res.results.size();
                } else {
                    fut.wait_for(std::chrono::seconds(0));
                }
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    frontend.flush();
    const core::ShardedPipelineReport rep = frontend.stop();

    constexpr std::uint64_t kTotalOps =
        kSessions * kBatches * kOpsPerBatch;
    EXPECT_GE(completedOps.load(), kTotalOps / 2);
    EXPECT_EQ(rep.aggregate.latency.requests, kTotalOps);
    EXPECT_GT(rep.aggregate.latency.p50Ns, 0.0);
    EXPECT_LE(rep.aggregate.latency.p50Ns, rep.aggregate.latency.p99Ns);
    EXPECT_LE(rep.aggregate.latency.p99Ns,
              rep.aggregate.latency.p999Ns);
    EXPECT_LE(rep.aggregate.latency.p999Ns,
              rep.aggregate.latency.maxNs);
    EXPECT_GT(rep.aggregate.windows, 0u);
}

TEST(ServeFrontend, RejectPolicyFailsBatchDeterministically)
{
    FrontendConfig fcfg;
    fcfg.admissionOps = 2;
    fcfg.queueFullPolicy = QueueFullPolicy::Reject;

    core::ShardedLaoram engine(engineConfig(1, 8));
    ServeFrontend frontend(engine, fcfg);
    Session session = frontend.session();

    // Before start() nothing drains the lane, so the third operation
    // finds the queue full — a deterministic rejection.
    Batch batch;
    for (BlockId id = 0; id < 5; ++id)
        batch.ops.push_back(Op::lookup(id));
    std::future<BatchResult> fut = session.submit(std::move(batch));

    frontend.start();
    frontend.stop();
    EXPECT_THROW(fut.get(), RejectedError);
}

TEST(ServeFrontend, SubmitAfterStopRejects)
{
    core::ShardedLaoram engine(engineConfig(2, 8));
    ServeFrontend frontend(engine);
    Session session = frontend.session();
    frontend.start();
    frontend.stop();

    std::future<BatchResult> fut =
        session.submit(Batch{{Op::lookup(1)}});
    EXPECT_THROW(fut.get(), RejectedError);
}

TEST(ServeFrontend, EmptyBatchResolvesImmediately)
{
    core::ShardedLaoram engine(engineConfig(2, 8));
    ServeFrontend frontend(engine);
    Session session = frontend.session();
    std::future<BatchResult> fut = session.submit(Batch{});
    EXPECT_TRUE(fut.get().results.empty());
    // Never started: destructor has nothing to tear down.
}

TEST(ServeFrontend, SessionsGetDistinctIds)
{
    core::ShardedLaoram engine(engineConfig(2, 8));
    ServeFrontend frontend(engine);
    EXPECT_NE(frontend.session().id(), frontend.session().id());
}

TEST(ServeFrontendDeathTest, OutOfRangeBlockIdIsFatal)
{
    EXPECT_EXIT(
        {
            core::ShardedLaoram engine(engineConfig(2, 8));
            ServeFrontend frontend(engine);
            Session session = frontend.session();
            (void)session.submit(Batch{{Op::lookup(kBlocks)}});
        },
        ::testing::ExitedWithCode(1), "block space");
}

TEST(ServeFrontendDeathTest, PoolSmallerThanShardsIsFatal)
{
    EXPECT_EXIT(
        {
            core::ShardedLaoramConfig cfg = engineConfig(4, 8);
            cfg.servingThreads = 2;
            core::ShardedLaoram engine(cfg);
            ServeFrontend frontend(engine);
            (void)frontend;
        },
        ::testing::ExitedWithCode(1), "starve");
}

} // namespace
} // namespace laoram::serve
