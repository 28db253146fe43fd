/**
 * @file
 * The two-stage LAORAM pipeline (paper §VIII-A), generalised to a
 * configurable pool of preprocessor threads.
 *
 * Stage 1 (preprocessor pool) scans *future* look-ahead windows while
 * stage 2 (trainer GPU + ORAM) serves the current one. The paper
 * reports that preprocessing is orders of magnitude cheaper than
 * training and therefore falls off the critical path; when it is not
 * (large superblocks, heavy windows), prepThreads > 1 preprocesses
 * several windows concurrently so stage 1 keeps up.
 *
 * Two modes reproduce the paper's claim:
 *
 *  - Concurrent (default): prepThreads real preprocessor threads
 *    claim window indices from a shared ticket, build WindowSchedules
 *    concurrently, and push them — tagged with their window index —
 *    into a bounded ReorderWindow. The serving thread pops windows
 *    strictly in stream order; the window bound is the backpressure
 *    that caps how far ahead preprocessing may run. The report
 *    carries *measured* wall-clock overlap numbers, per-prep-thread
 *    utilization, and the reorder (head-of-line) stall share.
 *  - Simulated: the original analytic cost model — stage costs are
 *    simulated and the pipelined makespan computed, so Fig.-style
 *    benches stay exactly reproducible.
 *
 * Determinism for any prepThreads: window w's bin paths come from a
 * per-window derived RNG stream (Preprocessor::windowSeed), never
 * from call order, and the reorder stage restores exact stream order
 * before serving — so every payload byte, position-map entry, and
 * stash state matches the serial Laoram::runTrace regardless of how
 * the pool's threads interleave.
 */

#ifndef LAORAM_CORE_PIPELINE_HH
#define LAORAM_CORE_PIPELINE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/laoram_client.hh"
#include "core/serve_source.hh"
#include "util/latency_histogram.hh"

namespace laoram::core {

/** How BatchPipeline::run executes the two stages. */
enum class PipelineMode
{
    Concurrent, ///< real threads + bounded queue, measured overlap
    Simulated,  ///< analytic cost model only (no threads spawned)
};

/** Pipeline knobs. */
struct PipelineConfig
{
    /** Accesses per pipeline window (one "several batches" chunk). */
    std::uint64_t windowAccesses = 4096;

    /**
     * Simulated preprocessing cost per scanned access (hash-set insert
     * + path draw on a CPU thread; deliberately generous). Feeds the
     * modeled report fields in both modes.
     */
    double preprocessNsPerAccess = 25.0;

    PipelineMode mode = PipelineMode::Concurrent;

    /**
     * Reorder-window depth for Concurrent mode: how many prepared
     * windows may wait between the stages. Depth 1 forces strict
     * lock-step hand-off; larger depths absorb stage jitter at the
     * cost of more prepared-schedule client memory. (Up to
     * prepThreads further windows can be mid-build on top of the
     * buffered ones, so peak prepared-state memory is bounded by
     * queueDepth + prepThreads windows.)
     */
    std::size_t queueDepth = 4;

    /**
     * Preprocessor threads in the stage-1 pool (Concurrent mode;
     * Simulated mode ignores it). Results are byte-identical for any
     * value — see the file comment — so this is purely a throughput
     * knob for prep-bound configurations.
     */
    std::size_t prepThreads = 1;

    /**
     * Emulated stage-1 wall-time floor per scanned access (Concurrent
     * mode): after building a window, the preprocessor thread
     * busy-spins until the window's stage-1 time reaches this many ns
     * per access. The paper's preprocessor decrypts and parses the
     * upcoming training samples inside the trusted client (§IV-B) — a
     * cost our synthetic in-memory traces do not pay — so this knob
     * recreates the prep-bound regime where the pool matters. Zero
     * (default) adds nothing, and no served byte changes either way.
     */
    double prepLoadNsPerAccess = 0.0;

    /**
     * Stream position of the first window this run serves. 0 (the
     * default) is a fresh trace; a restored engine resuming a trace
     * mid-stream passes its windowsServed() here, and the trace
     * overload of run() replays only the remaining windows — with the
     * original stream's window numbering, so every window-derived
     * preprocessor path stream (Preprocessor::windowSeed) matches the
     * uninterrupted run byte for byte. Callers handing run() a custom
     * ServeSource must make the source number its windows from this
     * same base.
     */
    std::uint64_t firstWindowIndex = 0;

    /**
     * Window-boundary quiesce hook, fired on the serving thread right
     * after window @p w finished serving (after the source's
     * windowServed). Between windows the serving thread owns every
     * piece of engine state — stage-1 preprocessor threads never
     * touch the engine — so this is the safe point to checkpoint():
     * the ReorderWindow sequencing guarantees no later window has
     * started. Null (default) fires nothing.
     */
    std::function<void(std::uint64_t w)> windowBoundaryHook;

    /**
     * Reject incoherent knob combinations with a clear LAORAM_FATAL
     * (user error, exit 1) instead of a silent fallback: zero window
     * or queue sizes, negative cost models, and Simulated-mode
     * requests for machinery that only exists in Concurrent mode
     * (a preprocessor pool, an emulated prep load). Called by
     * BatchPipeline's constructor; callers building configs by hand
     * can invoke it early for fail-fast CLI validation.
     */
    void validate() const;
};

/** Result of a pipelined run. */
struct PipelineReport
{
    std::uint64_t windows = 0;

    // ---- Modeled (analytic cost model; identical in both modes). ----
    double totalPrepNs = 0.0;     ///< stage-1 work, summed
    double totalAccessNs = 0.0;   ///< stage-2 (ORAM) work, summed
    double serialNs = 0.0;        ///< no overlap: prep + access
    double pipelinedNs = 0.0;     ///< two-stage overlapped makespan
    /**
     * Fraction of *hideable* preprocessing removed from the critical
     * path by the overlap (0..1). The first window's preprocessing is
     * pipeline fill and excluded; with ORAM access time dominating,
     * this reaches 1.0 — the paper's "preprocessing is not on the
     * critical training path".
     */
    double prepHiddenFraction = 0.0;

    // ---- Measured (wall clock; Concurrent mode only, else zero). ----
    double wallPrepNs = 0.0;   ///< stage-1 thread work, summed
    double wallServeNs = 0.0;  ///< stage-2 thread work, summed
    double wallTotalNs = 0.0;  ///< end-to-end run() wall time
    double wallFillNs = 0.0;   ///< serve-thread wait for window 0
    double wallStallNs = 0.0;  ///< serve-thread waits after the fill

    /**
     * The head-of-line share of wallStallNs: serve-thread wait for
     * the next-in-sequence window while *later* windows were already
     * prepared and buffered. Zero with one preprocessor thread
     * (windows arrive in order); with a pool it is the price of the
     * determinism-preserving reorder stage.
     */
    double wallReorderStallNs = 0.0;

    // ---- Per-prep-thread breakdown (Concurrent mode only). ----
    std::uint32_t prepThreads = 0; ///< stage-1 pool size used

    /** Wall time thread t spent preprocessing windows, by thread. */
    std::vector<double> prepThreadBusyNs;

    /**
     * Busy share of each prep thread's lifetime (0..1). Low values
     * mean the thread mostly waited on reorder-window backpressure —
     * the pool is larger than the serving thread can consume.
     */
    std::vector<double> prepThreadUtilization;

    /** Windows preprocessed by each thread (sums to `windows`). */
    std::vector<std::uint64_t> prepThreadWindows;

    // ---- Measured backend I/O (real storage work; both modes). ----
    /**
     * Measured wall time the serving stage spent inside the storage
     * backend (slot reads/writes/flushes) over this run — the first
     * stall component that is *genuine I/O wait* rather than queue
     * wait. DRAM-backed runs report the in-memory encode/decode cost;
     * file-backed runs include the page faults that pull tree nodes
     * from disk.
     */
    double wallIoNs = 0.0;
    /**
     * Share of the serving thread's busy time spent in backend I/O
     * (wallIoNs / wallServeNs, Concurrent mode; 0 in Simulated mode
     * where no serve wall time is measured).
     */
    double ioServeFraction = 0.0;
    /**
     * Measured counterpart of prepHiddenFraction: of the wall-clock
     * preprocessing time that *could* overlap serving (everything
     * after the pipeline fill), the fraction that never stalled the
     * serving thread. 1.0 means the serving thread ran back-to-back —
     * preprocessing was entirely off the measured critical path.
     */
    double measuredPrepHiddenFraction = 0.0;

    // ---- Per-request latency (online sources only; see below). ----
    /**
     * Request-level latency percentiles, populated when the run's
     * ServeSource carries per-request timestamps (the session ingress
     * in src/serve/). All-zero for trace replay, which has no
     * requests to time.
     */
    LatencyReport latency;

    // ---- Hot-cache tier (zero when no cache is attached). ----
    /**
     * Hot-embedding-cache counter deltas over this run plus the
     * end-of-run occupancy levels. hits+misses equals the scheduled
     * member touches; the server-visible trace is unaffected either
     * way (dummy-access invariant).
     */
    cache::CacheStats cache;
};

/**
 * Drives a Laoram engine window by window with overlapped
 * preprocessing, mirroring the paper's deployment.
 *
 * The pipeline owns its own Preprocessor, seeded exactly like the
 * engine's internal one, so a pipelined run reproduces the serial
 * engine.runTrace byte for byte (same bins, same paths, same
 * traffic) — provided cfg.windowAccesses equals the engine's
 * effective look-ahead window (lookaheadWindow, or the whole trace
 * when that is 0), since window boundaries determine bin formation.
 */
class BatchPipeline
{
  public:
    BatchPipeline(Laoram &engine, const PipelineConfig &cfg);

    /**
     * THE run loop: drain @p source window by window through the
     * two-stage pipeline until it reports end of stream. Every other
     * entry point (the trace overload below, Laoram::runTrace,
     * ShardedLaoram's per-shard lanes, the serve/ frontend) funnels
     * into this method.
     */
    PipelineReport run(ServeSource &source);

    /**
     * Legacy adapter: run a pre-built trace by wrapping it in a
     * TraceSource sliced at cfg.windowAccesses.
     */
    PipelineReport run(const std::vector<BlockId> &trace);

  private:
    struct RunLedger;

    PipelineReport runConcurrent(ServeSource &source, RunLedger &ledger);
    PipelineReport runSimulated(ServeSource &source, RunLedger &ledger);

    /** Fill the modeled report fields from per-window stage costs. */
    static void finishModeledReport(PipelineReport &rep,
                                    const std::vector<double> &prepNs,
                                    const std::vector<double> &accessNs);

    Laoram &engine;
    PipelineConfig cfg;
    Preprocessor prep;
};

} // namespace laoram::core

#endif // LAORAM_CORE_PIPELINE_HH
