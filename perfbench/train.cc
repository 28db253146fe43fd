/**
 * @file
 * The two training workloads: one Kaggle/DLRM-like embedding trace
 * replayed epoch by epoch through LAORAM (superblocks, the two-stage
 * BatchPipeline) and through the PathORAM baseline.
 *
 * Both engines see the same epochs, rows and update bytes, and end on
 * the same embedding table: the first touch of a row in epoch e
 * applies one SGD step with a gradient that is a pure function of
 * (row, e); later touches of the row in the same epoch leave it as
 * is. LAORAM applies the step inside its touch callback
 * (read-modify-write of the row the ORAM returned); PathORAM makes
 * one access(Write) per trace entry carrying the row's current value.
 * After the measured region every row is read back and compared with
 * a plain in-memory replay of the same rule.
 *
 * The run is time-bounded: epoch 0 is the warm-up, then whole epochs
 * are served until --seconds have passed. Counts that must repeat
 * exactly for a seed are taken over the fixed epoch slice
 * [1, kCountEpochs], so they do not depend on how many epochs the
 * clock allowed.
 */

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>

#include "common.hh"
#include "core/laoram_client.hh"
#include "core/pipeline.hh"
#include "oram/path_oram.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

namespace perfbench {

namespace {

using laoram::oram::BlockId;

constexpr std::uint64_t kRows = 1ULL << 17;
constexpr std::uint64_t kPayload = 64;
constexpr std::uint64_t kEpochAccesses = 1ULL << 16;
constexpr std::uint64_t kBatchAccesses = 2048;
constexpr std::uint64_t kSuperblock = 4;
constexpr std::uint64_t kEngineSeed = 1;
constexpr int kSetupReps = 9;

/** Epochs after the warm-up whose counts are the deterministic slice. */
constexpr std::uint64_t kCountEpochs = 2;
constexpr std::uint64_t kMinEpochs = 1 + kCountEpochs;

/**
 * Epoch inputs generated per measured second. A run that serves
 * epochs faster than this ends early (and says so) instead of
 * generating inputs inside the measured region.
 */
constexpr double kMaxEpochsPerSecond = 8.0;

constexpr std::size_t kDims = kPayload / sizeof(float);
constexpr float kLearningRate = 1.0f / 64.0f;
constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

/** One SGD step on a row: w -= lr * g(row, epoch). */
void
sgdStep(std::uint8_t *row, BlockId id, std::uint64_t epoch)
{
    float w[kDims];
    std::memcpy(w, row, kPayload);
    std::uint64_t state = id * 0x9E3779B97F4A7C15ULL + epoch;
    const std::uint64_t bits = laoram::splitMix64(state);
    for (std::size_t i = 0; i < kDims; ++i) {
        const float g =
            static_cast<float>(static_cast<int>((bits >> (4 * i)) & 15)
                               - 8);
        w[i] -= kLearningRate * g;
    }
    std::memcpy(row, w, kPayload);
}

/** Per-epoch traces, generated before anything is timed. */
struct Inputs
{
    std::vector<std::vector<std::uint32_t>> epochs;
};

Inputs
makeInputs(const Options &opt)
{
    const std::uint64_t n =
        kMinEpochs
        + static_cast<std::uint64_t>(opt.seconds * kMaxEpochsPerSecond);
    Inputs in;
    in.epochs.resize(n);
    for (std::uint64_t e = 0; e < n; ++e) {
        std::uint64_t state = opt.seed * 0x9E3779B97F4A7C15ULL + e;
        const laoram::workload::Trace t = laoram::workload::makeTrace(
            laoram::workload::DatasetKind::Kaggle, kRows, kEpochAccesses,
            laoram::splitMix64(state));
        in.epochs[e].assign(t.accesses.begin(), t.accesses.end());
    }
    return in;
}

laoram::oram::EngineConfig
engineConfig()
{
    laoram::oram::EngineConfig c;
    c.numBlocks = kRows;
    c.payloadBytes = kPayload;
    c.profile = laoram::oram::BucketProfile::uniform(4);
    c.encrypt = false;
    c.seed = kEngineSeed;
    return c;
}

/** The table both engines must end on after @p epochs epochs. */
std::vector<std::uint8_t>
replayReference(const Inputs &in, std::uint64_t epochs)
{
    std::vector<std::uint8_t> table(kRows * kPayload, 0);
    std::vector<std::uint32_t> last(kRows, kNever);
    for (std::uint64_t e = 0; e < epochs; ++e)
        for (std::uint32_t id : in.epochs[e])
            if (last[id] != e) {
                last[id] = static_cast<std::uint32_t>(e);
                sgdStep(&table[id * kPayload], id, e);
            }
    return table;
}

/**
 * Read every row back through @p engine and compare it with the
 * replayed reference. Returns the mismatch count.
 */
std::uint64_t
verifyTable(laoram::oram::OramEngine &engine,
            const std::vector<std::uint8_t> &ref)
{
    std::uint64_t bad = 0;
    std::vector<std::uint8_t> row;
    for (BlockId id = 0; id < kRows; ++id) {
        engine.readBlock(id, row);
        if (row.size() != kPayload
            || std::memcmp(row.data(), &ref[id * kPayload], kPayload)
                   != 0)
            ++bad;
    }
    return bad;
}

/** Counter snapshot at a window (epoch) boundary. */
struct Snapshot
{
    laoram::mem::TrafficCounters traffic;
    laoram::storage::IoStats io;
    std::uint64_t preprocessed = 0;
    std::uint64_t futureLinked = 0;
};

/**
 * Decides whether epoch @p e is served: always while the minimum
 * count is not reached, then while the epoch before it is
 * predicted to end inside the measured time.
 */
bool
admitEpoch(const Options &opt, std::uint64_t e, std::uint64_t available,
           std::int64_t measureStartNs, std::int64_t lastEpochNs)
{
    if (e >= available)
        return false;
    if (e < kMinEpochs)
        return true;
    const double elapsed =
        static_cast<double>(nowNs() + lastEpochNs - measureStartNs)
        / 1e9;
    return elapsed < opt.seconds;
}

/** Figures every training run reports, engine-independent. */
struct TrainTiming
{
    std::uint64_t epochs = 0;
    std::vector<std::int64_t> epochEnds; ///< when each epoch was served
    /** One mark per training batch: (time, accesses served so far). */
    std::vector<std::pair<std::int64_t, std::uint64_t>> batchMarks;
    std::vector<double> setupS;
};

/** Fill the end-to-end metrics, counts and the correctness verdict. */
void
finishTrain(const Inputs &in, const TrainTiming &t,
            laoram::oram::OramEngine &engine, const Snapshot &a,
            const Snapshot &b, Result &r)
{
    // Median over the training batches after the warm-up epoch:
    // robust to a batch that lost its CPU to another tenant.
    std::vector<double> batchRates;
    for (std::size_t i = 1; i < t.batchMarks.size(); ++i)
        batchRates.push_back(ratio(
            static_cast<double>(t.batchMarks[i].second
                                - t.batchMarks[i - 1].second),
            static_cast<double>(t.batchMarks[i].first
                                - t.batchMarks[i - 1].first)
                / 1e9));
    const double measuredS =
        static_cast<double>(t.epochEnds.back() - t.epochEnds.front()) / 1e9;

    r.endToEnd["accesses_per_s"] = median(batchRates);
    r.endToEnd["setup_s"] = median(t.setupS);

    const laoram::mem::TrafficCounters d = b.traffic.since(a.traffic);
    const double acc = static_cast<double>(d.logicalAccesses);
    const laoram::storage::IoStats io = b.io.since(a.io);
    r.counts["oram.path_reads_per_access"] =
        ratio(static_cast<double>(d.pathReads), acc);
    r.counts["oram.dummy_reads_per_access"] =
        ratio(static_cast<double>(d.dummyReads), acc);
    r.counts["oram.slots_per_access"] =
        ratio(static_cast<double>(d.blocksRead + d.blocksWritten), acc);
    r.counts["oram.bytes_per_access"] =
        ratio(static_cast<double>(d.totalBytes()), acc);
    r.counts["oram.stash_peak"] =
        static_cast<double>(b.traffic.stashPeak);
    r.counts["storage.ops_per_access"] =
        ratio(static_cast<double>(io.readOps + io.writeOps), acc);
    if (b.preprocessed > a.preprocessed) // LAORAM only
        r.counts["preprocessor.future_linked_frac"] =
            static_cast<double>(b.futureLinked - a.futureLinked)
            / static_cast<double>(b.preprocessed - a.preprocessed);
    for (const auto &[name, v] : r.counts)
        r.perLayer[name] = v;

    const std::vector<std::uint8_t> ref = replayReference(in, t.epochs);
    const std::uint64_t bad = verifyTable(engine, ref);
    r.attempted = t.epochs * kEpochAccesses + kRows;
    r.failed = bad;
    r.correct = bad == 0;

    std::ostringstream note;
    note << t.epochs << " epochs of " << kEpochAccesses
         << " accesses (1 warm-up), " << measuredS << " s measured, "
         << t.batchMarks.size() << " batch marks; " << bad
         << " of " << kRows << " rows mismatched";
    r.notes.push_back(note.str());
    if (t.epochs == in.epochs.size())
        r.notes.push_back("ran out of pre-generated epochs before the "
                          "measured time was up");
}

/**
 * ServeSource handing out one whole epoch per look-ahead window, in
 * lock-step with serving: window w is released once window w-2 has
 * been served, so preprocessing of the next epoch overlaps serving of
 * the current one. Also carries the benchmark-side spans: the prep
 * span of window w runs from its release until the preprocessor
 * thread asks for the next window (runWindow plus the hand-off push),
 * the serve span from windowServing to windowServed.
 */
class EpochSource final : public laoram::core::ServeSource
{
  public:
    EpochSource(const Options &opt, const Inputs &in,
                std::function<void(std::uint64_t)> onServed)
        : opt(opt), in(in), onServed(std::move(onServed)),
          prepStart(in.epochs.size(), 0), prepNs(in.epochs.size(), 0),
          serveStart(in.epochs.size(), 0), serveNs(in.epochs.size(), 0),
          servedAt(in.epochs.size(), 0)
    {
    }

    bool
    nextWindow(laoram::core::SourceWindow &out) override
    {
        const std::int64_t entered = nowNs();
        std::unique_lock<std::mutex> lock(mu);
        if (next > 0 && prepNs[next - 1] == 0)
            prepNs[next - 1] = entered - prepStart[next - 1];
        const std::uint64_t w = next;
        cv.wait(lock, [&] { return w < 2 || served + 1 >= w; });
        if (ended
            || !admitEpoch(opt, w, in.epochs.size(), servedAt[0],
                           lastServeNs)) {
            ended = true;
            return false;
        }
        ++next;
        lock.unlock();

        const std::vector<std::uint32_t> &ids = in.epochs[w];
        out.windowIndex = w;
        out.traceOffset = w * kEpochAccesses;
        out.accesses.assign(ids.begin(), ids.end());
        prepStart[w] = nowNs();
        return true;
    }

    void
    windowServing(std::uint64_t w) override
    {
        epoch = w;
        serveStart[w] = nowNs();
    }

    void
    windowServed(std::uint64_t w) override
    {
        serveNs[w] = nowNs() - serveStart[w];
        onServed(w);
        const std::int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mu);
        served = w + 1;
        lastServeNs = serveNs[w];
        servedAt[w] = t;
        cv.notify_all();
    }

    /** Epoch being served (read by the touch callback, same thread). */
    std::uint64_t currentEpoch() const { return epoch; }

    std::uint64_t epochsServed() const { return served; }

    /** When each served window finished, in window order. */
    std::vector<std::int64_t>
    epochEnds() const
    {
        return {servedAt.begin(), servedAt.begin() + served};
    }

    /** Sum of prep / serve span time over windows [from, served). */
    std::int64_t
    prepTotal(std::uint64_t from) const
    {
        std::int64_t s = 0;
        for (std::uint64_t w = from; w < served; ++w)
            s += prepNs[w];
        return s;
    }

    std::int64_t
    serveTotal(std::uint64_t from) const
    {
        std::int64_t s = 0;
        for (std::uint64_t w = from; w < served; ++w)
            s += serveNs[w];
        return s;
    }

    void
    emitSpans(Tracer &tracer) const
    {
        for (std::uint64_t w = 0; w < served; ++w) {
            tracer.record({"preprocessor.runWindow", prepStart[w],
                           prepStart[w] + prepNs[w], "run", w, ""});
            tracer.record({"engine.serveWindow", serveStart[w],
                           serveStart[w] + serveNs[w], "run", w, ""});
        }
    }

  private:
    const Options &opt;
    const Inputs &in;
    std::function<void(std::uint64_t)> onServed;

    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t next = 0;   ///< next window index to hand out
    std::uint64_t served = 0; ///< windows fully served
    bool ended = false;
    std::int64_t lastServeNs = 0;
    std::uint64_t epoch = 0;

    std::vector<std::int64_t> prepStart, prepNs, serveStart, serveNs;
    std::vector<std::int64_t> servedAt;
};

} // namespace

Result
runTrainLaoram(const Options &opt, Tracer &tracer)
{
    const Inputs in = makeInputs(opt);

    laoram::core::LaoramConfig lc;
    lc.base = engineConfig();
    lc.superblockSize = kSuperblock;
    lc.lookaheadWindow = kEpochAccesses;
    lc.batchAccesses = kBatchAccesses;
    laoram::core::PipelineConfig pc;
    pc.windowAccesses = kEpochAccesses;
    pc.mode = laoram::core::PipelineMode::Concurrent;
    pc.prepThreads = 1;
    pc.queueDepth = 2;

    TrainTiming t;
    std::unique_ptr<laoram::core::Laoram> engine;
    std::unique_ptr<laoram::core::BatchPipeline> pipe;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        pipe.reset();
        engine.reset();
        const std::int64_t t0 = nowNs();
        engine = std::make_unique<laoram::core::Laoram>(lc);
        pipe = std::make_unique<laoram::core::BatchPipeline>(*engine, pc);
        t.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    Snapshot start, a, b;
    auto snap = [&] {
        Snapshot s;
        s.traffic = engine->meter().counters();
        s.io = engine->storageForAudit().ioStats();
        s.preprocessed = engine->accessesPreprocessed();
        s.futureLinked = engine->futureLinkedMembers();
        return s;
    };
    start = snap();

    bool measuring = false;
    EpochSource source(opt, in, [&](std::uint64_t w) {
        if (w == 0) {
            a = snap();
            measuring = true;
        }
        if (w == kCountEpochs)
            b = snap();
    });

    // A batch's accesses are credited to the meter before its union
    // read, so the first touch that sees a new count starts a batch.
    std::vector<std::uint32_t> lastEpoch(kRows, kNever);
    std::uint64_t credited = 0;
    t.batchMarks.reserve(in.epochs.size() * kEpochAccesses / kBatchAccesses
                         + 1);
    engine->setTouchCallback(
        [&](BlockId id, std::vector<std::uint8_t> &payload) {
            const std::uint64_t e = source.currentEpoch();
            if (lastEpoch[id] != e) {
                lastEpoch[id] = static_cast<std::uint32_t>(e);
                sgdStep(payload.data(), id, e);
            }
            const std::uint64_t acc =
                engine->meter().counters().logicalAccesses;
            if (acc != credited) {
                credited = acc;
                if (measuring)
                    t.batchMarks.emplace_back(nowNs(), acc);
            }
        });

    const std::int64_t runStart = nowNs();
    const laoram::core::PipelineReport rep = pipe->run(source);
    const std::int64_t runEnd = nowNs();
    const Snapshot end = snap();
    engine->setTouchCallback(nullptr);

    t.epochs = source.epochsServed();
    t.epochEnds = source.epochEnds();

    Result r;
    finishTrain(in, t, *engine, a, b, r);

    // Per-layer times over the measured epochs (window 1 onwards).
    const double acc = static_cast<double>((t.epochs - 1) * kEpochAccesses);
    const double serveNs = static_cast<double>(source.serveTotal(1));
    const double ioNs =
        static_cast<double>(end.io.since(a.io).totalNs());
    r.perLayer["preprocessor.ns_per_access"] =
        ratio(static_cast<double>(source.prepTotal(1)), acc);
    r.perLayer["pipeline.serve_wait_frac"] =
        ratio(rep.wallFillNs + rep.wallStallNs, rep.wallTotalNs);
    r.perLayer["pipeline.prep_hidden_frac"] =
        rep.measuredPrepHiddenFraction;
    r.perLayer["engine.serve_ns_per_access"] = ratio(serveNs, acc);
    r.perLayer["engine.client_ns_per_access"] = ratio(serveNs - ioNs, acc);
    r.perLayer["storage.io_ns_per_access"] = ratio(ioNs, acc);
    r.perLayer["storage.io_frac"] = ratio(ioNs, serveNs);
    r.perLayer["crypto.records_per_op"] = 0.0; // encryption is off

    // Self time over the whole run, warm-up included.
    const double allIo =
        static_cast<double>(end.io.since(start.io).totalNs());
    r.selfTime = {
        {"preprocessor", static_cast<double>(source.prepTotal(0)) / 1e6,
         "prep thread: Preprocessor::runWindow spans"},
        {"pipeline", (rep.wallFillNs + rep.wallStallNs) / 1e6,
         "serving thread waiting for the next window"},
        {"engine",
         (static_cast<double>(source.serveTotal(0)) - allIo) / 1e6,
         "serving thread: Laoram::serveWindow spans minus storage"},
        {"storage", allIo / 1e6, "IoStats: DRAM slot encode/decode"},
    };
    if (tracer.enabled()) {
        tracer.record({"run", runStart, runEnd, "", 0, ""});
        source.emitSpans(tracer);
    }
    return r;
}

Result
runTrainPathOram(const Options &opt, Tracer &tracer)
{
    const Inputs in = makeInputs(opt);
    const laoram::oram::EngineConfig cfg = engineConfig();

    TrainTiming t;
    std::unique_ptr<laoram::oram::PathOram> engine;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        engine.reset();
        const std::int64_t t0 = nowNs();
        engine = std::make_unique<laoram::oram::PathOram>(cfg);
        t.setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    Snapshot start, a, b;
    auto snap = [&] {
        Snapshot s;
        s.traffic = engine->meter().counters();
        s.io = engine->storageForAudit().ioStats();
        return s;
    };
    start = snap();

    // The trainer's own copy of each row: the bytes every Write
    // carries. Verification uses an independent replay, not this.
    std::vector<std::uint8_t> rows(kRows * kPayload, 0);
    std::vector<std::uint32_t> lastEpoch(kRows, kNever);
    t.batchMarks.reserve(in.epochs.size() * kEpochAccesses / kBatchAccesses
                         + 1);
    std::vector<std::int64_t> chunkStart;
    const std::int64_t runStart = nowNs();
    std::int64_t lastEpochNs = 0;
    std::uint64_t e = 0;
    for (; admitEpoch(opt, e, in.epochs.size(),
                      t.epochEnds.empty() ? 0 : t.epochEnds.front(),
                      lastEpochNs);
         ++e) {
        const std::int64_t epochStart = nowNs();
        const std::vector<std::uint32_t> &ids = in.epochs[e];
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const BlockId id = ids[i];
            std::uint8_t *row = &rows[id * kPayload];
            if (lastEpoch[id] != e) {
                lastEpoch[id] = static_cast<std::uint32_t>(e);
                sgdStep(row, id, e);
            }
            engine->access(id, laoram::oram::AccessOp::Write, row,
                           kPayload, nullptr);
            if ((i + 1) % kBatchAccesses == 0) {
                const std::int64_t now = nowNs();
                if (e > 0)
                    t.batchMarks.emplace_back(now, e * kEpochAccesses + i + 1);
                if (tracer.enabled())
                    chunkStart.push_back(now);
            }
        }
        lastEpochNs = nowNs() - epochStart;
        if (e == 0)
            a = snap();
        if (e == kCountEpochs)
            b = snap();
        t.epochEnds.push_back(nowNs());
    }
    const std::int64_t runEnd = nowNs();
    const Snapshot end = snap();
    t.epochs = e;

    Result r;
    finishTrain(in, t, *engine, a, b, r);

    const double acc = static_cast<double>((t.epochs - 1) * kEpochAccesses);
    const double serveNs =
        static_cast<double>(t.epochEnds.back() - t.epochEnds.front());
    const double ioNs =
        static_cast<double>(end.io.since(a.io).totalNs());
    r.perLayer["engine.serve_ns_per_access"] = ratio(serveNs, acc);
    r.perLayer["engine.client_ns_per_access"] = ratio(serveNs - ioNs, acc);
    r.perLayer["storage.io_ns_per_access"] = ratio(ioNs, acc);
    r.perLayer["storage.io_frac"] = ratio(ioNs, serveNs);
    r.perLayer["crypto.records_per_op"] = 0.0; // encryption is off

    const double allIo =
        static_cast<double>(end.io.since(start.io).totalNs());
    r.selfTime = {
        {"engine", (static_cast<double>(runEnd - runStart) - allIo) / 1e6,
         "PathOram::access chunks minus storage"},
        {"storage", allIo / 1e6, "IoStats: DRAM slot encode/decode"},
    };
    if (tracer.enabled()) {
        tracer.record({"run", runStart, runEnd, "", 0, ""});
        std::int64_t prev = runStart;
        for (std::size_t c = 0; c < chunkStart.size(); ++c) {
            tracer.record({"engine.PathOram.access x2048", prev,
                           chunkStart[c], "run", c, ""});
            prev = chunkStart[c];
        }
    }
    return r;
}

} // namespace perfbench
