/**
 * @file
 * Process-wide live metrics: named counters, gauges and histograms,
 * snapshot-able from a background sampler thread while traffic is
 * flowing.
 *
 * Design contract:
 *
 *  - A subsystem that keeps a ledger of its own is *pulled*: it holds
 *    a MetricsSource whose callback reports the ledger whenever the
 *    registry is sampled, so no record site pushes a second copy.
 *    That covers the engine's TrafficMeter, SlotBackend's IoStats,
 *    the crypto and hot-cache ledgers, the pipeline's run ledger, the
 *    reorder window's Stats, the frontend's session count, and every
 *    level (queue depth, lanes or connections in flight, writes in
 *    the remote window). Pulled counters sum over sources and
 *    high-water gauges take the max; a closing source folds both
 *    into the registry's handle of the same name, so counters stay
 *    monotonic past the life of any one engine. Levels sum over live
 *    sources only: a closed source holds nothing.
 *  - Events no owner counts (rejects, batch and window sizes, node
 *    connections, RPCs, replay discards, reconnects) push into
 *    handles: registered once under a mutex, returned as stable
 *    references, updated with relaxed atomics. Each fires at most
 *    once per batch, window, RPC or connection, never per slot, so
 *    the push costs nothing a run would notice and needs no gate.
 */

#ifndef LAORAM_OBS_METRICS_HH
#define LAORAM_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace laoram::obs {

/**
 * No-op: metrics no longer have an enable switch (see the file
 * comment). Kept only because the perfbench serve runner still calls
 * it; remove it with that call.
 */
inline void setMetricsEnabled(bool) {}

/** Monotonic counter (relaxed increments). */
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
    std::atomic<std::uint64_t> v{0};
};

/**
 * High-water mark: where the registry folds the peaks of closed
 * sources (e.g. stash peak).
 */
class Gauge
{
  public:
    /** Raise to @p x if larger. */
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
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> n{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> maxV{0};
};

/**
 * One ledger cell with a single writer that a sampler thread may read
 * concurrently: relaxed load + store, never a read-modify-write, so
 * the writer pays what a plain integer costs. Writers that share a
 * cell must serialise themselves (a mutex they already hold). Copies
 * are value snapshots, so a struct of cells stays a value type.
 */
template <typename T>
class Tally
{
  public:
    Tally() = default;
    Tally(T x) : v(x) {}
    Tally(const Tally &o) : v(T(o)) {}
    Tally &operator=(const Tally &o) { return *this = T(o); }

    Tally &
    operator=(T x)
    {
        v.store(x, std::memory_order_relaxed);
        return *this;
    }

    Tally &operator+=(T d) { return *this = T(*this) + d; }
    Tally &operator++() { return *this += 1; }

    operator T() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<T> v{0};
};

/**
 * What a MetricsSource's callback reports its ledger into: the same
 * series, in the same order, on every call.
 */
struct PullSink
{
    /** How the registry combines one series over its sources. */
    enum class Kind : std::uint8_t
    {
        Counter,   ///< summed; folded into the handle on close
        HighWater, ///< max; folded into the handle on close
        Level,     ///< summed over live sources; never folded
    };

    struct Value
    {
        std::string name;
        const char *help;
        Kind kind;
        std::uint64_t value;
    };

    std::vector<Value> values;

    void
    counter(std::string name, const char *help, std::uint64_t value)
    {
        values.push_back({std::move(name), help, Kind::Counter, value});
    }

    void
    highWater(std::string name, const char *help, std::uint64_t value)
    {
        values.push_back(
            {std::move(name), help, Kind::HighWater, value});
    }

    void
    level(std::string name, const char *help, std::uint64_t value)
    {
        values.push_back({std::move(name), help, Kind::Level, value});
    }
};

/**
 * Counts one on @p level for its lifetime, so a holder that unwinds
 * still lowers it: the RAII form of a level several threads raise at
 * once (lanes or connections in flight).
 */
class LevelHold
{
  public:
    explicit LevelHold(std::atomic<std::uint64_t> &level) : level(level)
    {
        level.fetch_add(1, std::memory_order_relaxed);
    }

    ~LevelHold() { level.fetch_sub(1, std::memory_order_relaxed); }

    LevelHold(const LevelHold &) = delete;
    LevelHold &operator=(const LevelHold &) = delete;

  private:
    std::atomic<std::uint64_t> &level;
};

/**
 * RAII registration of a ledger the registry pulls from. Every
 * snapshot()/prometheusText() calls @p collect; destruction calls it
 * once more and folds the final values into the registry's handles.
 * Declare it after every member @p collect reads, so it unregisters
 * before they are destroyed. @p collect runs on the sampling thread
 * and must not call into the registry.
 */
class MetricsSource
{
  public:
    using Collect = std::function<void(PullSink &)>;

    explicit MetricsSource(Collect collect);
    ~MetricsSource();

    MetricsSource(const MetricsSource &) = delete;
    MetricsSource &operator=(const MetricsSource &) = delete;

  private:
    friend class MetricsRegistry;

    Collect collect;
    std::vector<std::size_t> entries; ///< registry index per series
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
 * The process-wide registry. counter()/histogram() register on first
 * use and return the same stable handle for the same name ever after
 * (help text of the first registration wins). Gauges come only from
 * sources.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name,
                     const std::string &help = "");
    Histogram &histogram(const std::string &name,
                         const std::string &help = "");

    /**
     * Flatten every metric into one sample (relaxed reads; safe
     * against concurrent updates), pulled sources included.
     * Histograms expand into .count/.sum/.mean/.max/.p50/.p99
     * entries.
     */
    MetricsSnapshot snapshot() const;

    /**
     * Prometheus-style text exposition: names are prefixed "laoram_"
     * with dots mapped to underscores, each preceded by # HELP/# TYPE
     * lines.
     */
    std::string prometheusText() const;

  private:
    friend class MetricsSource;

    MetricsRegistry() = default;

    enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

    struct Entry; ///< name + help + owned metric storage

    std::size_t findOrCreateLocked(const std::string &name,
                                   const std::string &help, Kind kind);
    Entry &findOrCreate(const std::string &name,
                        const std::string &help, Kind kind);

    /**
     * Collect every live source; element i is the pulled value of
     * entry i (0, or past the end, where no source reports it).
     * Caller holds pullMu only: collect callbacks may take their
     * owner's lock, and none runs under mu.
     */
    std::vector<std::uint64_t> pullSources() const;

    /** Serialises source attach/detach and collection; before mu. */
    mutable std::mutex pullMu;
    std::vector<MetricsSource *> sources;

    mutable std::mutex mu;
    std::vector<std::unique_ptr<Entry>> entries;
};

} // namespace laoram::obs

#endif // LAORAM_OBS_METRICS_HH
