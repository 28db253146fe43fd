/**
 * @file
 * Process-wide live metrics: named counters, gauges and histograms
 * with relaxed-atomic hot-path updates, snapshot-able from a
 * background sampler thread while traffic is flowing.
 *
 * Design contract:
 *
 *  - Handles are registered once (at subsystem construction, or
 *    lazily behind a function-local static) and returned as stable
 *    references into the singleton MetricsRegistry; registration
 *    takes a mutex, updates never do.
 *  - Every instrumentation site guards its whole update block with a
 *    single branch on metricsEnabled() — one relaxed atomic-bool load
 *    — so a run without --metrics-out pays one predicted-not-taken
 *    branch per site (verified by bench_obs_overhead).
 *  - Counters registered under one name aggregate naturally: every
 *    shard engine's TrafficMeter and every SlotBackend of one kind
 *    shares the same handle, so the sampled series is the live
 *    process-wide total that reconciles with the end-of-run report
 *    sums.
 */

#ifndef LAORAM_OBS_METRICS_HH
#define LAORAM_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace laoram::obs {

namespace detail {
extern std::atomic<bool> gMetricsEnabled;
} // namespace detail

/**
 * The hot-path gate: instrumentation sites wrap their updates in
 * `if (obs::metricsEnabled()) { ... }`. A relaxed load of one global
 * atomic bool — set once at startup, before traffic — is the entire
 * disabled-path cost.
 */
inline bool
metricsEnabled()
{
    return detail::gMetricsEnabled.load(std::memory_order_relaxed);
}

/** Flip the gate (ObsSession at startup; tests). */
void setMetricsEnabled(bool on);

/** Monotonic counter (relaxed increments; no hot-path gate inside). */
class Counter
{
  public:
    void
    add(std::uint64_t d)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    void inc() { add(1); }

    std::uint64_t
    get() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    std::atomic<std::uint64_t> v{0};
};

/** Signed instantaneous level (queue depths, in-flight windows). */
class Gauge
{
  public:
    void
    add(std::int64_t d)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }

    void inc() { add(1); }
    void dec() { add(-1); }

    void
    set(std::int64_t x)
    {
        v.store(x, std::memory_order_relaxed);
    }

    /** Raise to @p x if larger (high-water marks, e.g. stash peak). */
    void
    setMax(std::int64_t x)
    {
        std::int64_t cur = v.load(std::memory_order_relaxed);
        while (cur < x
               && !v.compare_exchange_weak(cur, x,
                                           std::memory_order_relaxed)) {
        }
    }

    std::int64_t
    get() const
    {
        return v.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    std::atomic<std::int64_t> v{0};
};

/**
 * Lock-free power-of-two histogram for hot-path size/duration
 * distributions (coalesced batch sizes). Bucket i counts values whose
 * bit width is i (bucket 0 holds zeros), so record() is a bit-scan
 * plus three relaxed adds.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 65;

    void record(std::uint64_t value);

    std::uint64_t
    count() const
    {
        return n.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return total.load(std::memory_order_relaxed);
    }

    std::uint64_t
    max() const
    {
        return maxV.load(std::memory_order_relaxed);
    }

    /**
     * Approximate p-quantile (0..1) from the bucket counts: the lower
     * bound of the bucket the quantile lands in. Zero when empty.
     */
    std::uint64_t quantile(double p) const;

  private:
    friend class MetricsRegistry;
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> n{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> maxV{0};
};

/** One flattened sample of the registry (histograms expanded). */
struct MetricsSnapshot
{
    struct Value
    {
        std::string name;
        double value = 0.0;
    };

    std::vector<Value> values; ///< registration order, stable names
};

/**
 * The process-wide registry. counter()/gauge()/histogram() register
 * on first use and return the same stable handle for the same name
 * ever after (help text of the first registration wins).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Gauge &gauge(const std::string &name, const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::string &help = "");

    /**
     * Flatten every metric into one sample (relaxed reads; safe
     * against concurrent updates). Histograms expand into
     * .count/.sum/.mean/.max/.p50/.p99 entries.
     */
    MetricsSnapshot snapshot() const;

    /**
     * Prometheus-style text exposition: names are prefixed "laoram_"
     * with dots mapped to underscores, each preceded by # HELP/# TYPE
     * lines.
     */
    std::string prometheusText() const;

    /** Registered metric count (tests). */
    std::size_t size() const;

    /**
     * Test hook: zero every registered metric (handles stay valid).
     * Callers must quiesce updaters first.
     */
    void resetForTest();

  private:
    MetricsRegistry() = default;

    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct Entry; ///< name + help + owned metric storage

    Entry &findOrCreate(const std::string &name,
                        const std::string &help, Kind kind);

    mutable std::mutex mu;
    std::vector<std::unique_ptr<Entry>> entries;
};

} // namespace laoram::obs

#endif // LAORAM_OBS_METRICS_HH
