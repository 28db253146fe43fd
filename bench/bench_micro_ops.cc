/**
 * @file
 * Engine micro-throughput on google-benchmark: wall-clock logical
 * accesses/second of each engine across tree heights, plus the
 * storage path read and the batched seal/open of one path. This is
 * infrastructure benchmarking (host speed of the simulator itself),
 * not a paper figure — the paper metrics are simulated-time ratios,
 * which bench_fig7_speedups reports.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "common/harness.hh"
#include "core/pipeline.hh"
#include "crypto/encryptor.hh"
#include "oram/path_oram.hh"
#include "oram/ring_oram.hh"
#include "util/rng.hh"

using namespace laoram;

namespace {

using bench::randomTrace;

void
BM_PathOramAccess(benchmark::State &state)
{
    const std::uint64_t blocks = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    oram::EngineConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockBytes = 128;
    cfg.seed = 1;
    oram::PathOram engine(cfg);
    const auto trace = randomTrace(blocks, 1024, 2);
    std::size_t i = 0;
    for (auto _ : state) {
        engine.touch(trace[i++ & 1023]);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_LaoramBinAccess(benchmark::State &state)
{
    const std::uint64_t blocks = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    core::LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 128;
    cfg.base.seed = 1;
    cfg.superblockSize = 4;
    core::Laoram engine(cfg);

    // Serve freshly preprocessed windows, each bin once, as the
    // pipeline does. Replaying one window would serve bins whose
    // members were already remapped past them, so after the first
    // pass every look-ahead link would be stale.
    constexpr std::uint64_t kWindow = 4096;
    core::Preprocessor prep(
        core::PreprocessorConfig{4, engine.geometry().numLeaves()}, 3);
    core::PreprocessResult window;
    std::uint64_t windowIndex = 0;
    std::size_t next = 0;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        if (next == window.bins.size()) {
            state.PauseTiming();
            const auto trace =
                randomTrace(blocks, kWindow, 4 + windowIndex);
            window = prep.runWindow(windowIndex, windowIndex * kWindow,
                                    trace.data(),
                                    trace.data() + trace.size())
                         .result;
            ++windowIndex;
            next = 0;
            state.ResumeTiming();
        }
        const core::SuperblockBin &bin = window.bins[next++];
        engine.accessBatch(&bin, 1);
        accesses += bin.rawAccesses;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

void
BM_RingOramAccess(benchmark::State &state)
{
    const std::uint64_t blocks = std::uint64_t{1}
        << static_cast<unsigned>(state.range(0));
    oram::RingOramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 128;
    cfg.base.seed = 1;
    oram::RingOram engine(cfg);
    const auto trace = randomTrace(blocks, 1024, 5);
    std::size_t i = 0;
    for (auto _ : state) {
        engine.touch(trace[i++ & 1023]);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PreprocessorScan(benchmark::State &state)
{
    const std::uint64_t blocks = 1 << 18;
    core::Preprocessor prep(core::PreprocessorConfig{4, blocks}, 7);
    const auto trace = randomTrace(
        blocks, static_cast<std::uint64_t>(state.range(0)), 6);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prep.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

void
BM_StorageVectoredPathRead(benchmark::State &state)
{
    // The vectored-path hot path of the AccessSink cleanup: with no
    // sink installed the per-path read takes ONE branch for the audit
    // tap, not one per slot. range(0) == 1 attaches a trivial sink so
    // the no-sink fast path and the probe path are directly
    // comparable.
    const std::uint64_t blocks = 1 << 16;
    oram::EngineConfig cfg;
    cfg.numBlocks = blocks;
    cfg.blockBytes = 128;
    cfg.seed = 11;
    oram::PathOram engine(cfg);
    oram::ServerStorage &storage = engine.storageForTest();
    const oram::TreeGeometry &geom = engine.geometry();

    std::uint64_t sunk = 0;
    if (state.range(0) == 1) {
        storage.setAccessSink(
            [&sunk](std::uint64_t, bool) { ++sunk; });
    }

    // One whole root-to-leaf path per iteration, like readPathMetered.
    std::vector<std::uint64_t> slots;
    for (unsigned level = 0; level < geom.numLevels(); ++level) {
        const auto node = geom.pathNode(/*leaf=*/3, level);
        const std::uint64_t base = geom.nodeSlotBase(node);
        for (std::uint64_t s = 0; s < geom.bucketSize(level); ++s)
            slots.push_back(base + s);
    }
    std::vector<oram::StoredBlock> out;
    for (auto _ : state) {
        storage.readSlots(slots.data(), slots.size(), out);
        benchmark::DoNotOptimize(out);
    }
    benchmark::DoNotOptimize(sunk);
    state.SetItemsProcessed(state.iterations() * slots.size());
}

/** The kernel of @p lanes lanes in ChaCha20::kernels(). */
const crypto::ChaCha20::Kernel &
kernelOf(std::int64_t lanes)
{
    for (const auto &k : crypto::ChaCha20::kernels())
        if (static_cast<std::int64_t>(k.lanes) == lanes)
            return k;
    std::abort();
}

/** Nonce of a record write: slot (8 B LE) || epoch (4 B LE). */
crypto::Nonce96
slotNonce(std::uint64_t slot, std::uint32_t epoch)
{
    crypto::Nonce96 nonce{};
    for (int i = 0; i < 8; ++i)
        nonce[i] = static_cast<std::uint8_t>(slot >> (8 * i));
    for (int i = 0; i < 4; ++i)
        nonce[8 + i] = static_cast<std::uint8_t>(epoch >> (8 * i));
    return nonce;
}

void
BM_SealPath(benchmark::State &state)
{
    // Seal, then open, every 80-B record (16-B header + 64-B payload,
    // the serving workload's record) of one root-to-leaf path of a
    // 2^16-block tree in one batched call each, as ServerStorage does
    // per path, on the kernel of range(0) lanes. Nonces are staged
    // per call as Encryptor stages them. Items are records sealed
    // plus records opened; a batch that does not seal to the 4-lane
    // kernel's bytes, or does not open back to its plaintext, fails
    // by name.
    constexpr std::size_t kRecordBytes = 80;
    const auto xorStreams = kernelOf(state.range(0)).xorStreams;
    const oram::TreeGeometry geom(std::uint64_t{1} << 16, 64,
                                  oram::BucketProfile::uniform(4));
    std::vector<std::uint64_t> slots;
    for (unsigned level = 0; level < geom.numLevels(); ++level) {
        const std::uint64_t base =
            geom.nodeSlotBase(geom.pathNode(/*leaf=*/3, level));
        for (std::uint64_t s = 0; s < geom.bucketSize(level); ++s)
            slots.push_back(base + s);
    }
    const crypto::Key256 key = crypto::Encryptor::deriveKey(13);
    std::vector<crypto::Nonce96> nonces(slots.size());
    std::vector<std::uint8_t> records(slots.size() * kRecordBytes);
    for (std::size_t i = 0; i < records.size(); ++i)
        records[i] = static_cast<std::uint8_t>(i * 7);
    const std::vector<std::uint8_t> plain = records;

    for (std::size_t i = 0; i < slots.size(); ++i)
        nonces[i] = slotNonce(slots[i], 1);
    std::vector<std::uint8_t> reference = plain;
    kernelOf(4).xorStreams(key, nonces.data(), nonces.size(), 0,
                           reference.data(), kRecordBytes);
    xorStreams(key, nonces.data(), nonces.size(), 0, records.data(),
               kRecordBytes);
    if (records != reference)
        state.SkipWithError("sealed path differs from the 4-lane kernel");
    records = plain;

    std::uint32_t epoch = 0;
    for (auto _ : state) {
        ++epoch;
        for (std::size_t i = 0; i < slots.size(); ++i)
            nonces[i] = slotNonce(slots[i], epoch);
        xorStreams(key, nonces.data(), nonces.size(), 0, records.data(),
                   kRecordBytes);
        for (std::size_t i = 0; i < slots.size(); ++i)
            nonces[i] = slotNonce(slots[i], epoch);
        xorStreams(key, nonces.data(), nonces.size(), 0, records.data(),
                   kRecordBytes);
        benchmark::DoNotOptimize(records.data());
        benchmark::ClobberMemory();
    }
    if (records != plain)
        state.SkipWithError("sealed path did not open to its plaintext");
    state.SetItemsProcessed(state.iterations() * 2
                            * static_cast<std::int64_t>(slots.size()));
    state.SetBytesProcessed(state.iterations() * 2
                            * static_cast<std::int64_t>(records.size()));
}

/** One BM_SealPath row per kernel width this CPU runs. */
void
SealPathWidths(benchmark::internal::Benchmark *b)
{
    b->ArgName("lanes");
    for (const auto &k : crypto::ChaCha20::kernels())
        if (k.supported)
            b->Arg(static_cast<std::int64_t>(k.lanes));
}

void
BM_PipelineTrace(benchmark::State &state)
{
    // Full two-stage pipeline over a fixed trace; range(0) selects
    // the mode (0 = Simulated cost model, 1 = Concurrent threads), so
    // the delta is the real thread + queue overhead per access.
    const std::uint64_t blocks = 1 << 14;
    const auto trace = randomTrace(blocks, 1 << 14, 8);
    core::PipelineConfig pc;
    pc.windowAccesses = 2048;
    pc.mode = state.range(0) == 0 ? core::PipelineMode::Simulated
                                  : core::PipelineMode::Concurrent;
    for (auto _ : state) {
        core::LaoramConfig cfg;
        cfg.base.numBlocks = blocks;
        cfg.base.blockBytes = 128;
        cfg.base.seed = 9;
        cfg.superblockSize = 4;
        core::Laoram engine(cfg);
        core::BatchPipeline pipe(engine, pc);
        benchmark::DoNotOptimize(pipe.run(trace));
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}

} // namespace

BENCHMARK(BM_PathOramAccess)->Arg(12)->Arg(16)->Arg(18);
BENCHMARK(BM_LaoramBinAccess)->Arg(12)->Arg(16)->Arg(18);
BENCHMARK(BM_RingOramAccess)->Arg(12)->Arg(16);
BENCHMARK(BM_PreprocessorScan)->Arg(4096)->Arg(65536);
BENCHMARK(BM_StorageVectoredPathRead)->Arg(0)->Arg(1);
BENCHMARK(BM_SealPath)->Apply(SealPathWidths);
BENCHMARK(BM_PipelineTrace)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
