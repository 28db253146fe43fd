#include "obs/metrics.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace laoram::obs {

namespace {

/** Bit width of @p v: 0 for 0, else 1 + floor(log2 v). */
std::size_t
bitWidth(std::uint64_t v)
{
    std::size_t w = 0;
    while (v != 0) {
        ++w;
        v >>= 1;
    }
    return w;
}

} // namespace

void
Histogram::record(std::uint64_t value)
{
    buckets[bitWidth(value)].fetch_add(1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t cur = maxV.load(std::memory_order_relaxed);
    while (cur < value
           && !maxV.compare_exchange_weak(cur, value,
                                          std::memory_order_relaxed)) {
    }
}

std::uint64_t
Histogram::quantile(double p) const
{
    const std::uint64_t samples = count();
    if (samples == 0)
        return 0;
    const double target = p * static_cast<double>(samples);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += buckets[i].load(std::memory_order_relaxed);
        if (static_cast<double>(seen) >= target) {
            // Lower bound of bucket i: 0 for i==0, else 2^(i-1).
            return i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
        }
    }
    return max();
}

struct MetricsRegistry::Entry
{
    std::string name;
    std::string help;
    Kind kind = Kind::Counter;
    bool highWater = false; ///< a gauge sources report as high-water
    // Exactly one of these is live, by kind; unique_ptr members keep
    // handle addresses stable as `entries` grows.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge; ///< closed sources' high-water fold
    std::unique_ptr<Histogram> histogram;

    /** A gauge's value: @p pulled, or the fold's max with it. */
    std::int64_t
    level(std::uint64_t pulled) const
    {
        const auto live = static_cast<std::int64_t>(pulled);
        return highWater ? std::max(gauge->get(), live) : live;
    }
};

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry reg;
    return reg;
}

std::size_t
MetricsRegistry::findOrCreateLocked(const std::string &name,
                                    const std::string &help, Kind kind)
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i]->name == name) {
            LAORAM_ASSERT(entries[i]->kind == kind, "metric '", name,
                          "' re-registered with a different kind");
            return i;
        }
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->help = help;
    entry->kind = kind;
    switch (kind) {
      case Kind::Counter:
        entry->counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        entry->gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        entry->histogram = std::make_unique<Histogram>();
        break;
    }
    entries.push_back(std::move(entry));
    return entries.size() - 1;
}

MetricsRegistry::Entry &
MetricsRegistry::findOrCreate(const std::string &name,
                              const std::string &help, Kind kind)
{
    std::lock_guard<std::mutex> lock(mu);
    return *entries[findOrCreateLocked(name, help, kind)];
}

Counter &
MetricsRegistry::counter(const std::string &name,
                         const std::string &help)
{
    return *findOrCreate(name, help, Kind::Counter).counter;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           const std::string &help)
{
    return *findOrCreate(name, help, Kind::Histogram).histogram;
}

MetricsSource::MetricsSource(Collect collect)
    : collect(std::move(collect))
{
    // Not yet visible to samplers, so this first collect (which names
    // the series) needs no lock.
    PullSink sink;
    this->collect(sink);
    MetricsRegistry &reg = MetricsRegistry::instance();
    std::lock_guard<std::mutex> pull(reg.pullMu);
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const PullSink::Value &v : sink.values) {
        const std::size_t i = reg.findOrCreateLocked(
            v.name, v.help,
            v.kind == PullSink::Kind::Counter
                ? MetricsRegistry::Kind::Counter
                : MetricsRegistry::Kind::Gauge);
        reg.entries[i]->highWater = v.kind == PullSink::Kind::HighWater;
        entries.push_back(i);
    }
    reg.sources.push_back(this);
}

MetricsSource::~MetricsSource()
{
    // One pullMu section from the last collect to the removal, so a
    // concurrent sample sees this source either live or folded, never
    // both and never neither. Levels are not folded: a closed source
    // holds nothing.
    MetricsRegistry &reg = MetricsRegistry::instance();
    std::lock_guard<std::mutex> pull(reg.pullMu);
    PullSink sink;
    collect(sink);
    std::lock_guard<std::mutex> lock(reg.mu);
    for (std::size_t k = 0; k < sink.values.size(); ++k) {
        const PullSink::Value &v = sink.values[k];
        MetricsRegistry::Entry &e = *reg.entries[entries[k]];
        if (v.kind == PullSink::Kind::HighWater)
            e.gauge->setMax(static_cast<std::int64_t>(v.value));
        else if (v.kind == PullSink::Kind::Counter)
            e.counter->add(v.value);
    }
    reg.sources.erase(
        std::find(reg.sources.begin(), reg.sources.end(), this));
}

std::vector<std::uint64_t>
MetricsRegistry::pullSources() const
{
    std::vector<std::uint64_t> pulled;
    PullSink sink;
    for (MetricsSource *source : sources) {
        sink.values.clear();
        source->collect(sink);
        LAORAM_ASSERT(sink.values.size() == source->entries.size(),
                      "a metrics source changed its series");
        for (std::size_t k = 0; k < sink.values.size(); ++k) {
            const std::size_t i = source->entries[k];
            if (pulled.size() <= i)
                pulled.resize(i + 1, 0);
            const std::uint64_t v = sink.values[k].value;
            pulled[i] = sink.values[k].kind == PullSink::Kind::HighWater
                            ? std::max(pulled[i], v)
                            : pulled[i] + v;
        }
    }
    return pulled;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> pull(pullMu);
    std::vector<std::uint64_t> pulled = pullSources();
    std::lock_guard<std::mutex> lock(mu);
    pulled.resize(entries.size(), 0);
    MetricsSnapshot snap;
    snap.values.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::unique_ptr<Entry> &e = entries[i];
        switch (e->kind) {
          case Kind::Counter:
            snap.values.push_back(
                {e->name,
                 static_cast<double>(e->counter->get() + pulled[i])});
            break;
          case Kind::Gauge:
            snap.values.push_back(
                {e->name, static_cast<double>(e->level(pulled[i]))});
            break;
          case Kind::Histogram: {
            const Histogram &h = *e->histogram;
            const double cnt = static_cast<double>(h.count());
            const double sum = static_cast<double>(h.sum());
            snap.values.push_back({e->name + ".count", cnt});
            snap.values.push_back({e->name + ".sum", sum});
            snap.values.push_back(
                {e->name + ".mean", cnt > 0.0 ? sum / cnt : 0.0});
            snap.values.push_back(
                {e->name + ".max", static_cast<double>(h.max())});
            snap.values.push_back(
                {e->name + ".p50",
                 static_cast<double>(h.quantile(0.5))});
            snap.values.push_back(
                {e->name + ".p99",
                 static_cast<double>(h.quantile(0.99))});
            break;
          }
        }
    }
    return snap;
}

namespace {

/** laoram_<name with dots/dashes as underscores>. */
std::string
promName(const std::string &name)
{
    std::string out = "laoram_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                        || (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

std::string
MetricsRegistry::prometheusText() const
{
    std::lock_guard<std::mutex> pull(pullMu);
    std::vector<std::uint64_t> pulled = pullSources();
    std::lock_guard<std::mutex> lock(mu);
    pulled.resize(entries.size(), 0);
    std::ostringstream os;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::unique_ptr<Entry> &e = entries[i];
        const std::string base = promName(e->name);
        const char *type = e->kind == Kind::Counter ? "counter"
                                                    : "gauge";
        if (e->kind == Kind::Histogram) {
            // Exposed as a summary-ish pair plus the tracked max; the
            // power-of-two buckets are a sampler-side detail.
            const Histogram &h = *e->histogram;
            if (!e->help.empty())
                os << "# HELP " << base << " " << e->help << "\n";
            os << "# TYPE " << base << " summary\n"
               << base << "_count " << h.count() << "\n"
               << base << "_sum " << h.sum() << "\n"
               << base << "_max " << h.max() << "\n";
            continue;
        }
        if (!e->help.empty())
            os << "# HELP " << base << " " << e->help << "\n";
        os << "# TYPE " << base << " " << type << "\n" << base << " ";
        if (e->kind == Kind::Counter)
            os << e->counter->get() + pulled[i];
        else
            os << e->level(pulled[i]);
        os << "\n";
    }
    return os.str();
}

} // namespace laoram::obs
