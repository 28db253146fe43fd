#include "core/pipeline.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/reorder_window.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/walltime.hh"

namespace laoram::core {

namespace {

/** What travels over the reorder window: a schedule + its prep cost. */
struct PreparedWindow
{
    WindowSchedule sched;
    std::int64_t prepWallNs = 0;
};

/** Per-prep-thread accounting, written only by its owner thread. */
struct PrepThreadLedger
{
    std::int64_t busyNs = 0;     ///< time inside runWindow
    std::int64_t lifetimeNs = 0; ///< thread start to exit
    std::uint64_t windows = 0;   ///< windows preprocessed
};

} // namespace

/**
 * One run's serving-stage ledger, written by the serving thread only:
 * the report reads it at the end and the registry pulls it live.
 */
struct BatchPipeline::RunLedger
{
    obs::Tally<std::uint64_t> windows;
    obs::Tally<std::uint64_t> fillNs;  ///< wait for the first window
    obs::Tally<std::uint64_t> stallNs; ///< waits after the fill

    obs::MetricsSource source{[this](obs::PullSink &out) {
        out.counter("pipeline.windows_served",
                    "windows drained through the serving stage",
                    windows);
        out.counter("pipeline.fill_ns",
                    "serve-thread wait for each run's first window",
                    fillNs);
        out.counter("pipeline.stall_ns",
                    "serve-thread waits after the pipeline fill",
                    stallNs);
    }};
};

void
PipelineConfig::validate() const
{
    // User-facing config errors (LAORAM_FATAL, exit 1) — not library
    // invariants, so no LAORAM_ASSERT/abort here.
    if (windowAccesses < 1)
        LAORAM_FATAL("pipeline windowAccesses must be >= 1");
    if (queueDepth < 1)
        LAORAM_FATAL("pipeline queueDepth must be >= 1");
    if (prepThreads < 1)
        LAORAM_FATAL("pipeline prepThreads must be >= 1 (one thread "
                     "IS the minimal stage-1 pool)");
    if (preprocessNsPerAccess < 0.0)
        LAORAM_FATAL("preprocessNsPerAccess must be >= 0, got ",
                     preprocessNsPerAccess);
    if (prepLoadNsPerAccess < 0.0)
        LAORAM_FATAL("prepLoadNsPerAccess must be >= 0, got ",
                     prepLoadNsPerAccess);
    if (mode == PipelineMode::Simulated && prepThreads > 1) {
        LAORAM_FATAL("PipelineMode::Simulated runs both stages on the "
                     "calling thread; prepThreads=", prepThreads,
                     " would be silently ignored — use Concurrent "
                     "mode for a preprocessor pool");
    }
    if (mode == PipelineMode::Simulated && prepLoadNsPerAccess > 0.0) {
        LAORAM_FATAL("prepLoadNsPerAccess emulates wall-clock stage-1 "
                     "load on real preprocessor threads; Simulated "
                     "mode spawns none — use preprocessNsPerAccess "
                     "for the analytic model instead");
    }
}

BatchPipeline::BatchPipeline(Laoram &engine, const PipelineConfig &cfg)
    : engine(engine), cfg(cfg),
      prep(PreprocessorConfig{engine.laoramConfig().superblockSize,
                              engine.geometry().numLeaves()},
           engine.preprocessorSeed())
{
    cfg.validate();
}

PipelineReport
BatchPipeline::run(ServeSource &source)
{
    cache::CacheStats cacheStart;
    if (const cache::HotEmbeddingCache *c = engine.hotCache())
        cacheStart = c->stats();
    RunLedger ledger;
    PipelineReport rep = cfg.mode == PipelineMode::Concurrent
                             ? runConcurrent(source, ledger)
                             : runSimulated(source, ledger);
    rep.windows = ledger.windows;
    rep.wallFillNs = static_cast<double>(ledger.fillNs);
    rep.wallStallNs = static_cast<double>(ledger.stallNs);
    if (StreamingHistogram *hist = source.latencyHistogram())
        rep.latency = hist->report();
    if (const cache::HotEmbeddingCache *c = engine.hotCache())
        rep.cache = c->stats().deltaFrom(cacheStart);
    return rep;
}

PipelineReport
BatchPipeline::run(const std::vector<BlockId> &trace)
{
    if (trace.empty())
        return PipelineReport{};
    TraceSource source(trace, cfg.windowAccesses,
                       cfg.firstWindowIndex);
    return run(source);
}

void
BatchPipeline::finishModeledReport(PipelineReport &rep,
                                   const std::vector<double> &prepNs,
                                   const std::vector<double> &accessNs)
{
    if (prepNs.empty())
        return;
    for (double ns : prepNs)
        rep.totalPrepNs += ns;
    for (double ns : accessNs)
        rep.totalAccessNs += ns;
    rep.serialNs = rep.totalPrepNs + rep.totalAccessNs;

    // Two-stage pipeline makespan: prep(w0), then each step overlaps
    // access(w_i) with prep(w_{i+1}).
    rep.pipelinedNs = prepNs.front();
    for (std::size_t i = 0; i < accessNs.size(); ++i) {
        const double next_prep =
            (i + 1 < prepNs.size()) ? prepNs[i + 1] : 0.0;
        rep.pipelinedNs += std::max(accessNs[i], next_prep);
    }

    // Hidden fraction is measured over the *hideable* preprocessing:
    // the first window's prep is unavoidable pipeline fill, every
    // later window can overlap with the previous window's training.
    // Clamped like the measured fraction: rounding in the makespan
    // accumulation must not report hidden work outside [0, 1].
    const double hideable = rep.totalPrepNs - prepNs.front();
    if (hideable > 0.0) {
        rep.prepHiddenFraction = std::clamp(
            (rep.serialNs - rep.pipelinedNs) / hideable, 0.0, 1.0);
    } else {
        // Single window: nothing can overlap by construction.
        rep.prepHiddenFraction = 0.0;
    }
}

PipelineReport
BatchPipeline::runSimulated(ServeSource &source, RunLedger &ledger)
{
    PipelineReport rep;
    std::vector<double> prepNs;
    std::vector<double> accessNs;

    const storage::IoStats ioBefore =
        engine.storageForAudit().ioStats();
    SourceWindow sw;
    while (source.nextWindow(sw)) {
        // Stage 1: preprocess the window (simulated cost; same
        // window-derived path stream as every other mode).
        const PreprocessResult res =
            prep.runWindow(sw.windowIndex, sw.traceOffset,
                           sw.accesses.data(),
                           sw.accesses.data() + sw.accesses.size())
                .result;
        prepNs.push_back(cfg.preprocessNsPerAccess
                         * static_cast<double>(res.totalAccesses));

        // Stage 2: serve it through the ORAM; measure via the meter's
        // simulated clock delta.
        source.windowServing(sw.windowIndex);
        const double before = engine.meter().clock().nanoseconds();
        {
            obs::TraceSpan span("serve-window", sw.windowIndex);
            engine.serveWindow(res);
        }
        accessNs.push_back(engine.meter().clock().nanoseconds()
                           - before);
        source.windowServed(sw.windowIndex);
        ++ledger.windows;
        if (cfg.windowBoundaryHook)
            cfg.windowBoundaryHook(sw.windowIndex);
    }

    rep.wallIoNs = static_cast<double>(engine.storageForAudit()
                                           .ioStats()
                                           .since(ioBefore)
                                           .totalNs());
    finishModeledReport(rep, prepNs, accessNs);
    return rep;
}

PipelineReport
BatchPipeline::runConcurrent(ServeSource &source, RunLedger &ledger)
{
    PipelineReport rep;
    const std::size_t poolSize = cfg.prepThreads;

    ReorderWindow<PreparedWindow> reorder(cfg.queueDepth,
                                          cfg.firstWindowIndex);
    std::mutex errorMu;
    std::exception_ptr prepError;

    const storage::IoStats ioBefore =
        engine.storageForAudit().ioStats();

    const WallClock::time_point runStart = WallClock::now();

    // Stage 1 on a pool of poolSize threads: each worker claims the
    // next window from the source (an atomic ticket for trace replay,
    // a blocking pull from the session coalescer online), preprocesses
    // it with the window-derived path stream (order-independent by
    // construction), and pushes the schedule into the reorder window
    // under its window index. push() blocks once the window is
    // queueDepth ahead of serving — the backpressure that stops
    // preprocessing from running arbitrarily far ahead of training.
    // Deadlock freedom holds because the source hands out contiguous
    // indices only *with* their data: every claimed sequence number
    // is pushed (or the window is closed on error/shutdown).
    std::atomic<std::size_t> liveProducers{poolSize};
    std::vector<PrepThreadLedger> ledgers(poolSize);

    auto prepWorker = [&](std::size_t tid) {
        const WallClock::time_point threadStart = WallClock::now();
        obs::traceSetThreadName("prep-" + std::to_string(tid));
        PrepThreadLedger &ledger = ledgers[tid];
        try {
            SourceWindow sw;
            while (source.nextWindow(sw)) {
                PreparedWindow item;
                const WallClock::time_point t0 = WallClock::now();
                item.sched = prep.runWindow(
                    sw.windowIndex, sw.traceOffset, sw.accesses.data(),
                    sw.accesses.data() + sw.accesses.size());
                if (cfg.prepLoadNsPerAccess > 0.0) {
                    // Emulated sample-decrypt/parse cost (see
                    // PipelineConfig::prepLoadNsPerAccess): spin the
                    // window's share of stage-1 wall time without
                    // touching any served byte.
                    const std::int64_t target = static_cast<
                        std::int64_t>(
                        cfg.prepLoadNsPerAccess
                        * static_cast<double>(sw.accesses.size()));
                    while (elapsedNs(t0, WallClock::now()) < target) {
                    }
                }
                item.prepWallNs = elapsedNs(t0, WallClock::now());
                obs::traceRecordEndingNow("prep-window",
                                          item.prepWallNs,
                                          sw.windowIndex);
                ledger.busyNs += item.prepWallNs;
                ++ledger.windows;

                if (!reorder.push(sw.windowIndex, std::move(item)))
                    break; // serving side shut the pipeline down
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!prepError)
                    prepError = std::current_exception();
            }
            // This worker's claimed window will never arrive; the
            // consumer must not wait on the gap.
            reorder.close();
        }
        ledger.lifetimeNs = elapsedNs(threadStart, WallClock::now());
        // Last producer out ends the stream.
        if (liveProducers.fetch_sub(1, std::memory_order_acq_rel) == 1)
            reorder.close();
    };

    std::vector<std::thread> pool;
    pool.reserve(poolSize);
    for (std::size_t t = 0; t < poolSize; ++t)
        pool.emplace_back(prepWorker, t);
    auto joinPool = [&] {
        for (std::thread &t : pool)
            t.join();
    };

    // Stage 2 on the calling thread: drain prepared windows through
    // the engine strictly in window order — the reorder stage's
    // guarantee. Touch callbacks therefore keep running on the
    // caller's thread, exactly like the serial runTrace.
    std::vector<double> prepNsModeled;
    std::vector<double> accessNsModeled;
    std::vector<std::int64_t> prepWall;
    obs::traceSetThreadName("serve");
    try {
        PreparedWindow item;
        while (true) {
            ReorderWindow<PreparedWindow>::ReleaseToken slot;
            const WallClock::time_point waitStart = WallClock::now();
            if (!reorder.popDeferred(item, slot))
                break;
            const std::int64_t waited =
                elapsedNs(waitStart, WallClock::now());
            obs::traceRecordEndingNow("reorder-wait", waited,
                                      item.sched.windowIndex);
            if (prepWall.empty())
                ledger.fillNs = waited; // pipeline fill, not a stall
            else
                ledger.stallNs += waited;
            // Hand the freed slot back only now: stage 1's next burst
            // lands inside the serve interval, not inside the wait we
            // just measured. If serveWindow throws, the token's
            // destructor still wakes the pool on unwind.
            slot.release();

            prepWall.push_back(item.prepWallNs);
            prepNsModeled.push_back(
                cfg.preprocessNsPerAccess
                * static_cast<double>(item.sched.result.totalAccesses));

            source.windowServing(item.sched.windowIndex);
            const double simBefore =
                engine.meter().clock().nanoseconds();
            const WallClock::time_point serveStart = WallClock::now();
            engine.serveWindow(item.sched.result);
            const std::int64_t servedNs =
                elapsedNs(serveStart, WallClock::now());
            obs::traceRecordEndingNow("serve-window", servedNs,
                                      item.sched.windowIndex);
            ++ledger.windows;
            rep.wallServeNs += static_cast<double>(servedNs);
            accessNsModeled.push_back(
                engine.meter().clock().nanoseconds() - simBefore);
            source.windowServed(item.sched.windowIndex);
            // Window boundary: the serving thread owns all engine
            // state here (stage 1 only builds schedules), so the
            // quiesce hook may checkpoint() safely.
            if (cfg.windowBoundaryHook)
                cfg.windowBoundaryHook(item.sched.windowIndex);
        }
    } catch (...) {
        reorder.close(); // unblock the pool, then re-raise
        joinPool();
        throw;
    }
    joinPool();
    if (prepError)
        std::rethrow_exception(prepError);

    rep.wallReorderStallNs =
        static_cast<double>(reorder.stats().headOfLineWaitNs);

    rep.prepThreads = static_cast<std::uint32_t>(poolSize);
    rep.prepThreadBusyNs.reserve(poolSize);
    rep.prepThreadUtilization.reserve(poolSize);
    rep.prepThreadWindows.reserve(poolSize);
    for (const PrepThreadLedger &ledger : ledgers) {
        rep.prepThreadBusyNs.push_back(
            static_cast<double>(ledger.busyNs));
        rep.prepThreadUtilization.push_back(
            ledger.lifetimeNs > 0
                ? std::clamp(static_cast<double>(ledger.busyNs)
                                 / static_cast<double>(
                                     ledger.lifetimeNs),
                             0.0, 1.0)
                : 0.0);
        rep.prepThreadWindows.push_back(ledger.windows);
    }
    // Measured backend I/O during the serve stage: the serving thread
    // is the only storage client, so the delta over this run is its
    // genuine I/O component.
    rep.wallIoNs = static_cast<double>(engine.storageForAudit()
                                           .ioStats()
                                           .since(ioBefore)
                                           .totalNs());
    if (rep.wallServeNs > 0.0) {
        rep.ioServeFraction =
            std::clamp(rep.wallIoNs / rep.wallServeNs, 0.0, 1.0);
    }
    rep.wallTotalNs =
        static_cast<double>(elapsedNs(runStart, WallClock::now()));
    std::int64_t prepTotalNs = 0;
    for (std::int64_t ns : prepWall)
        prepTotalNs += ns;
    rep.wallPrepNs = static_cast<double>(prepTotalNs);

    // Measured overlap: of the preprocessing wall time that could hide
    // behind serving (everything after the first window's fill), the
    // share that never stalled the serving thread.
    const std::int64_t hideableWall =
        prepWall.empty() ? 0 : prepTotalNs - prepWall.front();
    if (hideableWall > 0) {
        const double hideable = static_cast<double>(hideableWall);
        rep.measuredPrepHiddenFraction = std::clamp(
            (hideable - static_cast<double>(ledger.stallNs)) / hideable,
            0.0, 1.0);
    }

    finishModeledReport(rep, prepNsModeled, accessNsModeled);
    return rep;
}

} // namespace laoram::core
