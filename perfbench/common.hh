/**
 * @file
 * Shared plumbing of the repository benchmark runner: run options,
 * the result record each workload fills, benchmark-side spans, and
 * small statistics helpers.
 *
 * Spans are recorded by the benchmark's own code around calls into
 * the library's public API; nothing inside src/ is instrumented. They
 * are kept in memory and written out once, after the measured
 * region.
 */

#ifndef LAORAM_PERFBENCH_COMMON_HH
#define LAORAM_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since a process-wide steady epoch. */
std::int64_t nowNs();

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Where the traced run writes its spans (JSON). */
    std::string spansPath;

    /** laoram_node binary (serve workload). */
    std::string nodeBin;
};

/** One benchmark-side span; spans of one window/request share `id`. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::string parent; ///< name of the enclosing span ("" = root)
    std::uint64_t id = 0;
    std::string attrs;  ///< extra JSON members ("" = none)
};

/** In-memory span buffer; a no-op unless tracing is on. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on(on) {}

    bool enabled() const { return on; }

    void record(Span span);

    /** Spans recorded so far (call once recording threads are done). */
    const std::vector<Span> &spans() const { return buf; }

    /** Write every span as one JSON document. */
    void write(const std::string &path) const;

  private:
    bool on;
    std::mutex mu;
    std::vector<Span> buf;
};

/** One row of the per-layer self-time table. */
struct SelfTime
{
    std::string layer;
    double ms = 0.0;
    std::string what; ///< which thread / which spans it covers
};

/** What a workload reports back to main(). */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;

    /**
     * Counts that must repeat exactly for a fixed seed, in the traced
     * and untraced run alike (compared by run.py).
     */
    std::map<std::string, double> counts;

    std::vector<SelfTime> selfTime;
    std::vector<std::string> notes;
};

/** Linear-interpolated quantile of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Ratio that is 0 instead of NaN when @p den is 0. */
inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** 64-bit FNV-1a over @p n bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

Result runTrainLaoram(const Options &opt, Tracer &tracer);
Result runTrainPathOram(const Options &opt, Tracer &tracer);
Result runServeZipfNode(const Options &opt, Tracer &tracer);

} // namespace perfbench

#endif // LAORAM_PERFBENCH_COMMON_HH
