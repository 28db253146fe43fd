/**
 * @file
 * Observability overhead gate: the same concurrent pipeline run
 * untraced and with span tracing on, so the cost of the
 * instrumentation is a measured number, not a promise.
 *
 * Metrics have no off switch: the pulled series are ledgers the
 * pipeline and engine keep anyway, read only when sampled, and the
 * pushed ones fire at most once per window, batch or RPC. So the
 * untraced run is the baseline, and span sites are one branch with
 * no clock read when tracing is off (two back-to-back untraced runs
 * give untraced.noise_fraction). Every run also *reconciles*: the
 * live series must agree exactly with the pipeline report and the
 * engine's own traffic ledger, and the trace dump must validate as
 * Chrome-trace JSON with spans from both pipeline stages. These are
 * the hard CI gates (--smoke), because correctness regressions hide
 * behind noisy percentages but reconciliation failures do not. The
 * series are read after runOnce() has destroyed the pipeline and the
 * engine, so they reconcile through the registry's fold-on-close.
 */

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <sstream>
#include <vector>

#include "common/harness.hh"
#include "core/pipeline.hh"
#include "core/serve_source.hh"
#include "mem/traffic_meter.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"

using namespace laoram;

namespace {

struct RunOutcome
{
    core::PipelineReport rep;
    mem::TrafficCounters traffic;
    storage::IoStats io; ///< the engine backend's whole-life ledger
};

RunOutcome
runOnce(std::uint64_t blocks, std::uint64_t window,
        const std::vector<oram::BlockId> &trace)
{
    core::LaoramConfig cfg;
    cfg.base.numBlocks = blocks;
    cfg.base.blockBytes = 64;
    cfg.base.seed = 5;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = window;
    core::Laoram engine(cfg);

    core::PipelineConfig pc;
    pc.windowAccesses = window;
    pc.prepThreads = 2;
    pc.mode = core::PipelineMode::Concurrent;
    core::BatchPipeline pipe(engine, pc);
    core::TraceSource source(trace, window);
    RunOutcome out;
    out.rep = pipe.run(source);
    out.traffic = engine.meter().counters();
    out.io = engine.storageForAudit().ioStats();
    return out;
}

/** A registry counter's value now; the deltas reconcile a run. */
std::uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::instance().counter(name).get();
}

/**
 * Run once and check that the live series moved by exactly what the
 * run's report and ledgers say; fatal otherwise.
 */
RunOutcome
runReconciled(std::uint64_t blocks, std::uint64_t window,
              const std::vector<oram::BlockId> &trace)
{
    const char *names[] = {"pipeline.windows_served", "pipeline.fill_ns",
                           "pipeline.stall_ns", "oram.logical_accesses",
                           "storage.dram.slots_read"};
    std::vector<std::uint64_t> before;
    for (const char *name : names)
        before.push_back(counterValue(name));
    RunOutcome out = runOnce(blocks, window, trace);
    const std::uint64_t want[] = {
        out.rep.windows, static_cast<std::uint64_t>(out.rep.wallFillNs),
        static_cast<std::uint64_t>(out.rep.wallStallNs),
        out.traffic.logicalAccesses, out.io.slotsRead};
    for (std::size_t i = 0; i < std::size(names); ++i) {
        const std::uint64_t delta = counterValue(names[i]) - before[i];
        if (delta != want[i])
            LAORAM_FATAL("metrics reconciliation failed: ", names[i],
                         " moved by ", delta, ", the run's report and "
                         "ledgers say ", want[i]);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("bench_obs_overhead",
                   "Cost of the observability hooks: untraced vs "
                   "traced");
    auto blocks = args.addUint("blocks", "embedding rows", 1 << 13);
    auto accesses = args.addUint("accesses", "trace length", 1 << 15);
    auto window = args.addUint("window", "pipeline window accesses",
                               512);
    auto smoke = args.addFlag("smoke",
                              "tiny geometry for the CI gate "
                              "(reconciliation + trace validation)");
    args.parse(argc, argv);

    std::uint64_t nBlocks = *blocks, nAccesses = *accesses,
                  nWindow = *window;
    if (*smoke) {
        nBlocks = 1 << 10;
        nAccesses = 1 << 13;
        nWindow = 256;
    }

    bench::printHeader("Observability overhead (span tracer)",
                       "one concurrent pipeline, untraced and traced");

    const auto trace =
        bench::randomTrace(nBlocks, nAccesses, 1234);
    std::cout << nAccesses << " accesses over " << nBlocks
              << " blocks, window " << nWindow << ", 2 prep threads\n\n";

    obs::Tracer::instance().disable();
    obs::Tracer::instance().reset();

    // Warmup (first-touch page faults, thread pools) then two
    // untraced runs: their spread is the noise floor the overhead
    // number below should be read against.
    runOnce(nBlocks, nWindow, trace);
    const RunOutcome untraced1 = runReconciled(nBlocks, nWindow, trace);
    const RunOutcome untraced2 = runReconciled(nBlocks, nWindow, trace);
    const double untraced1Ns = untraced1.rep.wallTotalNs;
    const double untraced2Ns = untraced2.rep.wallTotalNs;
    const double untracedNs = std::min(untraced1Ns, untraced2Ns);
    const double noise = std::abs(untraced1Ns - untraced2Ns)
                         / std::max(untraced1Ns, untraced2Ns);

    // ---- Tracing enabled: time it, then the dump must parse as
    // Chrome-trace JSON with spans from both pipeline stages (prep
    // workers + serving thread).
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable(1 << 15);
    const double traceNs =
        runReconciled(nBlocks, nWindow, trace).rep.wallTotalNs;
    tracer.disable();

    std::ostringstream traceJson;
    tracer.writeTo(traceJson);
    std::string error;
    std::uint64_t events = 0;
    std::size_t threads = 0;
    if (!obs::validateChromeTrace(traceJson.str(), &error, &events,
                                  &threads))
        LAORAM_FATAL("trace validation failed: ", error);
    if (events == 0 || threads < 2)
        LAORAM_FATAL("trace validation failed: ", events,
                     " events from ", threads,
                     " threads (want spans from both stages)");

    const double traceOverhead = traceNs / untracedNs - 1.0;
    std::cout << std::fixed << std::setprecision(2)
              << "untraced : " << untracedNs / 1e6
              << " ms wall (run-to-run noise " << noise * 100.0
              << "%)\n"
              << "traced   : " << traceNs / 1e6 << " ms wall ("
              << traceOverhead * 100.0 << "% vs untraced, "
              << tracer.recorded() << " spans kept, "
              << tracer.dropped() << " dropped, " << threads
              << " threads)\n\n"
              << "every run's live series reconciled with its report "
                 "and ledgers (windows, fill\nand stall ns, accesses, "
                 "slots read; "
              << untraced2.rep.windows
              << " windows a run) and the trace validates as\n"
                 "Chrome JSON.\n";

    bench::BenchJson json("obs_overhead");
    json.add("accesses", nAccesses);
    json.add("untraced.wall_ms", untracedNs / 1e6);
    json.add("untraced.noise_fraction", noise);
    json.add("trace.wall_ms", traceNs / 1e6);
    json.add("trace.overhead_fraction", traceOverhead);
    json.add("trace.events", events);
    json.add("trace.threads", static_cast<std::uint64_t>(threads));
    json.add("trace.dropped", tracer.dropped());
    json.write();
    return 0;
}
