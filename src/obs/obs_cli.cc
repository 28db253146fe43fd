#include "obs/obs_cli.hh"

#include <cstdlib>
#include <fstream>

#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace laoram::obs {

ObsArgs
addObsArgs(ArgParser &args)
{
    ObsArgs oa;
    oa.metricsOut = args.addString(
        "metrics-out",
        "sample live metrics to this JSON-lines file", "");
    oa.metricsIntervalMs = args.addUint(
        "metrics-interval-ms", "sampling period for --metrics-out",
        100);
    oa.metricsIntervalSeen = args.seenTracker("metrics-interval-ms");
    oa.metricsProm = args.addString(
        "metrics-prom",
        "write a Prometheus-style text exposition here at shutdown",
        "");
    oa.traceOut = args.addString(
        "trace-out",
        "write a Chrome-trace/Perfetto span dump to this file", "");
    oa.traceBuffer = args.addUint(
        "trace-buffer",
        "span ring capacity per thread for --trace-out", 1 << 16);
    oa.traceBufferSeen = args.seenTracker("trace-buffer");
    oa.logLevel = args.addString(
        "log-level",
        "verbosity: quiet|warn|info|debug (default: info, or "
        "LAORAM_LOG_LEVEL)",
        "");
    oa.logLevelSeen = args.seenTracker("log-level");
    oa.reportJson = args.addString(
        "report-json",
        "dump the final run report (pipeline + traffic + latency) "
        "to this JSON file",
        "");
    return oa;
}

bool
obsConfigFromArgsChecked(const ObsArgs &oa, ObsConfig *out,
                         std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return false;
    };

    ObsConfig cfg;
    cfg.metricsOut = *oa.metricsOut;
    cfg.metricsIntervalMs = *oa.metricsIntervalMs;
    cfg.metricsProm = *oa.metricsProm;
    cfg.traceOut = *oa.traceOut;
    cfg.traceBufferEvents = *oa.traceBuffer;
    cfg.reportJson = *oa.reportJson;

    if (*oa.metricsIntervalSeen && cfg.metricsOut.empty())
        return fail(
            "--metrics-interval-ms requires --metrics-out");
    if (cfg.metricsIntervalMs == 0)
        return fail("--metrics-interval-ms must be positive");
    if (*oa.traceBufferSeen && cfg.traceOut.empty())
        return fail("--trace-buffer requires --trace-out");
    if (cfg.traceBufferEvents == 0)
        return fail("--trace-buffer must be positive");
    if (*oa.logLevelSeen) {
        if (!parseLogLevel(*oa.logLevel, &cfg.logLevel))
            return fail("unknown --log-level '" + *oa.logLevel
                        + "' (want quiet|warn|info|debug or 0..3)");
        cfg.logLevelSet = true;
    }

    *out = cfg;
    return true;
}

ObsConfig
obsConfigFromArgs(const ObsArgs &oa)
{
    ObsConfig cfg;
    std::string error;
    if (!obsConfigFromArgsChecked(oa, &cfg, &error))
        LAORAM_FATAL(error);
    return cfg;
}

bool
applyLogLevelFromEnv()
{
    const char *env = std::getenv("LAORAM_LOG_LEVEL");
    if (env == nullptr || *env == '\0')
        return false;
    LogLevel level;
    if (!parseLogLevel(env, &level)) {
        warn("ignoring unparseable LAORAM_LOG_LEVEL '", env, "'");
        return false;
    }
    setLogLevel(level);
    return true;
}

ObsSession::ObsSession(const ObsConfig &config) : config(config)
{
    if (config.logLevelSet)
        setLogLevel(config.logLevel);
    else
        applyLogLevelFromEnv();

    if (!config.metricsOut.empty()) {
        sampler = std::make_unique<MetricsSampler>(
            MetricsRegistry::instance(),
            MetricsSampler::Config{config.metricsOut,
                                   config.metricsIntervalMs});
        if (!sampler->start())
            sampler.reset();
    }
    if (!config.traceOut.empty())
        Tracer::instance().enable(config.traceBufferEvents);
}

ObsSession::~ObsSession()
{
    finish();
}

void
ObsSession::finish()
{
    if (finished)
        return;
    finished = true;
    if (sampler != nullptr) {
        sampler->stop();
        inform("metrics: wrote ", sampler->samplesWritten(),
               " samples to ", config.metricsOut);
        sampler.reset();
    }
    if (!config.metricsProm.empty()) {
        std::ofstream os(config.metricsProm);
        if (!os) {
            warn("metrics: cannot open '", config.metricsProm,
                 "' for writing");
        } else {
            os << MetricsRegistry::instance().prometheusText();
        }
    }
    if (!config.traceOut.empty()) {
        Tracer &tracer = Tracer::instance();
        tracer.disable();
        if (tracer.writeFile(config.traceOut)) {
            inform("trace: wrote ", tracer.recorded(), " spans (",
                   tracer.dropped(), " dropped) from ",
                   tracer.threadsSeen(), " threads to ",
                   config.traceOut);
        }
    }
}

} // namespace laoram::obs
