/**
 * @file
 * Shared CLI plumbing for the observability subsystem: every example
 * registers the same --metrics-* / --trace-* / --log-level options
 * with one addObsArgs() call and turns them into a running
 * ObsSession (sampler thread + tracer + log level) with another.
 *
 * Lifecycle: construct the ObsSession after ArgParser::parse and
 * before traffic starts; call finish() (or let the destructor)
 * after the run loop drains, once worker threads are joined — the
 * trace dump requires quiesced recorder threads (see obs/trace.hh).
 */

#ifndef LAORAM_OBS_OBS_CLI_HH
#define LAORAM_OBS_OBS_CLI_HH

#include <cstdint>
#include <memory>
#include <string>

#include "util/cli.hh"
#include "util/logging.hh"

namespace laoram::obs {

class MetricsSampler;

/** Parsed observability option handles (valid after parse). */
struct ObsArgs
{
    std::shared_ptr<std::string> metricsOut; ///< JSON-lines path
    std::shared_ptr<std::uint64_t> metricsIntervalMs;
    std::shared_ptr<bool> metricsIntervalSeen;
    std::shared_ptr<std::string> metricsProm; ///< exposition path
    std::shared_ptr<std::string> traceOut;    ///< Chrome-trace path
    std::shared_ptr<std::uint64_t> traceBuffer; ///< events/thread
    std::shared_ptr<bool> traceBufferSeen;
    std::shared_ptr<std::string> logLevel;
    std::shared_ptr<bool> logLevelSeen;
    std::shared_ptr<std::string> reportJson; ///< run-report path
};

/** Register the shared observability options on @p args. */
ObsArgs addObsArgs(ArgParser &args);

/** Resolved observability configuration. */
struct ObsConfig
{
    std::string metricsOut;  ///< empty => no sampler
    std::uint64_t metricsIntervalMs = 100;
    std::string metricsProm; ///< empty => no exposition dump
    std::string traceOut;    ///< empty => tracing disabled
    std::uint64_t traceBufferEvents = 1 << 16;
    bool logLevelSet = false; ///< --log-level given explicitly
    LogLevel logLevel = LogLevel::Info;
    std::string reportJson; ///< empty => no run report
};

/**
 * Resolve parsed options into @p out without exiting: false (with
 * @p error set when non-null) on a bad --log-level name, a zero
 * --metrics-interval-ms or --trace-buffer, or an interval/buffer
 * option given without the output it configures (the *Seen trackers
 * make that check catch explicitly-passed default values too). The
 * testable core of obsConfigFromArgs.
 */
bool obsConfigFromArgsChecked(const ObsArgs &oa, ObsConfig *out,
                              std::string *error = nullptr);

/** Resolve parsed options; fatal (exit 1) on anything the checked
 *  variant rejects. */
ObsConfig obsConfigFromArgs(const ObsArgs &oa);

/**
 * If the LAORAM_LOG_LEVEL environment variable is set and parses,
 * apply it via setLogLevel() and return true; warn (and return
 * false) on an unparseable value. The --log-level flag wins over the
 * environment — ObsSession only consults this when the flag was not
 * given.
 */
bool applyLogLevelFromEnv();

/**
 * RAII activation of the configured observability surface: applies
 * the log level (flag, else LAORAM_LOG_LEVEL), starts the sampler
 * when --metrics-out asks for it, and enables the tracer when
 * --trace-out does.
 * finish() stops the sampler (final reconciling sample), writes the
 * Prometheus exposition and the trace file.
 */
class ObsSession
{
  public:
    explicit ObsSession(const ObsConfig &config);

    /** Calls finish() if it has not run yet. */
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    /**
     * Flush every configured output. Call after worker threads are
     * joined (quiesced-recorder contract); idempotent.
     */
    void finish();

  private:
    ObsConfig config;
    std::unique_ptr<MetricsSampler> sampler;
    bool finished = false;
};

} // namespace laoram::obs

#endif // LAORAM_OBS_OBS_CLI_HH
