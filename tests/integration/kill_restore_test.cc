/**
 * @file
 * Kill-and-restore differential leg: an engine that dies at a random
 * window boundary — trusted state checkpointed to its sidecar, the
 * process gone — and is restored into a fresh Laoram over the
 * reopened tree must finish the trace byte-identically to a reference
 * engine that never died. Payloads, position map, stash, traffic
 * meters and the simulated clock are all compared via the shared
 * EngineSnapshot helpers, and the restored run's window numbering
 * (PipelineConfig::firstWindowIndex + windowBoundaryHook) is checked
 * to continue the original stream.
 *
 * Runs over both persistent backends: mmap, and a remote-KV node with
 * a server-side tree file. Seeded via LAORAM_DIFF_SEED /
 * LAORAM_DIFF_ITERS like the differential suite.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "../common/temp_dir.hh"
#include "core/pipeline.hh"
#include "engine_snapshot.hh"
#include "storage/slot_backend.hh"
#include "util/rng.hh"

namespace laoram::core {
namespace {

constexpr std::uint64_t kWindow = 24;
constexpr std::uint64_t kWindows = 6;

LaoramConfig
baseConfig(bool encrypt, std::uint64_t seed)
{
    LaoramConfig cfg;
    cfg.base.numBlocks = 96;
    cfg.base.blockBytes = 64;
    cfg.base.payloadBytes = 32;
    cfg.base.encrypt = encrypt;
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
fillPayloads(Laoram &engine, const LaoramConfig &cfg)
{
    std::vector<std::uint8_t> buf(cfg.base.payloadBytes);
    for (oram::BlockId id = 0; id < cfg.base.numBlocks; ++id) {
        for (std::size_t i = 0; i < buf.size(); ++i)
            buf[i] = static_cast<std::uint8_t>(id * 131 + i * 7);
        engine.writeBlock(id, buf);
    }
}

PipelineConfig
pipelineConfig()
{
    PipelineConfig pc;
    pc.windowAccesses = kWindow;
    pc.prepThreads = 2;
    pc.queueDepth = 2;
    return pc;
}

class KillRestore
    : public ::testing::TestWithParam<storage::BackendKind>
{
  protected:
    /** Each iteration starts from no tree and no sidecar. */
    void
    cleanup()
    {
        std::remove(tree.c_str());
        std::remove(sidecar.c_str());
    }

    storage::StorageConfig
    persistentStorage(bool keepExisting) const
    {
        storage::StorageConfig sc;
        sc.kind = GetParam();
        sc.path = tree;
        sc.keepExisting = keepExisting;
        return sc;
    }

    const TestTempDir tmp;
    const std::string tree = tmp.path("engine.tree");
    const std::string sidecar = tmp.path("engine.ckpt");
};

TEST_P(KillRestore, RestoredRunFinishesByteIdentically)
{
    const std::uint64_t iters = diffIters();
    Rng pick(diffSeed() ^ 0xC0FFEE);
    for (std::uint64_t it = 0; it < iters; ++it) {
        const std::uint64_t seed = diffSeed() + it * 1009;
        const bool encrypt = (it % 2) == 1;
        const LaoramConfig cfg = baseConfig(encrypt, seed);
        const auto trace = randomTrace(
            kWindow * kWindows, cfg.base.numBlocks, seed + 17);
        // Die after a random number of fully served windows,
        // never 0 (nothing restored) and never all (nothing left).
        const std::uint64_t cut = 1 + pick.nextBounded(kWindows - 1);
        const std::string what = "iter " + std::to_string(it)
                                 + " cut " + std::to_string(cut)
                                 + (encrypt ? " enc" : " plain");
        cleanup();

        // Uninterrupted reference over DRAM (the determinism
        // contract makes backend choice invisible to served bytes).
        Laoram reference(cfg);
        fillPayloads(reference, cfg);
        BatchPipeline(reference, pipelineConfig()).run(trace);
        const EngineSnapshot snap = snapshotOf(reference);

        // The victim serves `cut` windows on a persistent tree,
        // checkpoints at the window boundary, and "dies" (engine
        // destroyed, storage unmapped — the sidecar and tree file
        // are all that survive).
        {
            LaoramConfig vcfg = cfg;
            vcfg.base.storage = persistentStorage(false);
            Laoram victim(vcfg);
            fillPayloads(victim, vcfg);
            const std::vector<oram::BlockId> prefix(
                trace.begin(), trace.begin() + cut * kWindow);
            BatchPipeline(victim, pipelineConfig()).run(prefix);
            ASSERT_EQ(victim.windowsServed(), cut) << what;
            victim.checkpointToFile(sidecar);
        }

        // Restore into a fresh engine over the reopened tree and
        // finish the trace: the remaining windows must carry the
        // original stream numbering (firstWindowIndex) so every
        // window-derived preprocessor path stream lines up.
        LaoramConfig rcfg = cfg;
        rcfg.base.storage = persistentStorage(true);
        rcfg.base.checkpoint.path = sidecar;
        rcfg.base.checkpoint.restore = true;
        Laoram restored(rcfg);
        ASSERT_EQ(restored.windowsServed(), cut) << what;

        std::vector<std::uint64_t> boundaries;
        const std::vector<oram::BlockId> suffix(
            trace.begin() + cut * kWindow, trace.end());
        PipelineConfig pc = pipelineConfig();
        pc.firstWindowIndex = restored.windowsServed();
        pc.windowBoundaryHook = [&](std::uint64_t w) {
            boundaries.push_back(w);
        };
        BatchPipeline(restored, pc).run(suffix);

        ASSERT_EQ(boundaries.size(), kWindows - cut) << what;
        for (std::size_t i = 0; i < boundaries.size(); ++i)
            EXPECT_EQ(boundaries[i], cut + i) << what;
        EXPECT_EQ(restored.windowsServed(), kWindows) << what;
        expectMatchesSnapshot(snap, restored, what);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PersistentBackends, KillRestore,
    ::testing::Values(storage::BackendKind::MmapFile,
                      storage::BackendKind::Remote),
    [](const ::testing::TestParamInfo<storage::BackendKind> &i) {
        return i.param == storage::BackendKind::MmapFile ? "Mmap"
                                                         : "Remote";
    });

} // namespace
} // namespace laoram::core
