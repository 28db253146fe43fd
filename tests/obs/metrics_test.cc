/**
 * @file
 * MetricsRegistry tests: handle identity, snapshot/exposition shape,
 * pulled sources (counters, high-water marks, levels), the pipeline
 * series reconciling with the run report, and the concurrent
 * update-while-sampling contract the background sampler relies on
 * (runs under TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hh"
#include "obs/metrics.hh"
#include "oram/path_oram.hh"
#include "util/rng.hh"

namespace laoram::obs {
namespace {

class ObsMetricsTest : public ::testing::Test
{
  protected:
    /**
     * @p stem with a suffix no earlier test or --gtest_repeat round
     * used: the registry is process-wide and keeps what they left.
     */
    static std::string
    fresh(const std::string &stem)
    {
        static int used = 0;
        return stem + std::to_string(used++);
    }
};

TEST_F(ObsMetricsTest, SameNameReturnsSameHandle)
{
    auto &reg = MetricsRegistry::instance();
    const std::string name = fresh("test.same_name");
    Counter &a = reg.counter(name);
    Counter &b = reg.counter(name);
    EXPECT_EQ(&a, &b);
    a.inc();
    b.add(2);
    EXPECT_EQ(a.get(), 3u);
}

TEST_F(ObsMetricsTest, GaugeSetMaxIsMonotonic)
{
    Gauge g;
    g.setMax(10);
    g.setMax(4);
    EXPECT_EQ(g.get(), 10);
    g.setMax(12);
    EXPECT_EQ(g.get(), 12);
}

TEST_F(ObsMetricsTest, HistogramTracksCountSumMaxAndQuantiles)
{
    Histogram h;
    for (std::uint64_t v : {1u, 2u, 4u, 8u, 1024u})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1039u);
    EXPECT_EQ(h.max(), 1024u);
    EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
}

TEST_F(ObsMetricsTest, SnapshotExpandsHistograms)
{
    auto &reg = MetricsRegistry::instance();
    const std::string c = fresh("test.c"), g = fresh("test.g"),
                      h = fresh("test.h");
    reg.counter(c).add(7);
    const MetricsSource level(
        [&g](PullSink &out) { out.level(g, "pulled level", 3); });
    reg.histogram(h).record(16);

    const MetricsSnapshot snap = reg.snapshot();
    bool sawCounter = false, sawGauge = false, sawHistCount = false,
         sawHistP99 = false;
    for (const auto &v : snap.values) {
        if (v.name == c) {
            sawCounter = true;
            EXPECT_DOUBLE_EQ(v.value, 7.0);
        } else if (v.name == g) {
            sawGauge = true;
            EXPECT_DOUBLE_EQ(v.value, 3.0);
        } else if (v.name == h + ".count") {
            sawHistCount = true;
            EXPECT_DOUBLE_EQ(v.value, 1.0);
        } else if (v.name == h + ".p99") {
            sawHistP99 = true;
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawHistCount);
    EXPECT_TRUE(sawHistP99);
}

TEST_F(ObsMetricsTest, PrometheusTextMapsNames)
{
    auto &reg = MetricsRegistry::instance();
    const std::string leaf = fresh("reads");
    reg.counter("test.prom." + leaf, "read ops").add(5);
    const std::string text = reg.prometheusText();
    const std::string prom = "laoram_test_prom_" + leaf;
    EXPECT_NE(text.find(prom + " 5"), std::string::npos);
    EXPECT_NE(text.find("# TYPE " + prom + " counter"),
              std::string::npos);
}

/** @p name's value in @p snap (-1 when absent). */
double
valueOf(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &v : snap.values)
        if (v.name == name)
            return v.value;
    return -1.0;
}

/**
 * A source reporting @p prefix.count (a counter) and @p prefix.peak
 * (a high-water level), read from the two variables at sampling time.
 */
MetricsSource
testSource(const std::string &prefix, const std::uint64_t &count,
           const std::uint64_t &peak)
{
    return MetricsSource([prefix, &count, &peak](PullSink &out) {
        out.counter(prefix + ".count", "pulled count", count);
        out.highWater(prefix + ".peak", "pulled peak", peak);
    });
}

TEST_F(ObsMetricsTest, SourceValuesAppearInSnapshotAndExposition)
{
    auto &reg = MetricsRegistry::instance();
    const std::string src = fresh("test.src");
    std::uint64_t count = 7, peak = 3;
    const MetricsSource source = testSource(src, count, peak);
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".count"), 7.0);
    count = 9; // read at sampling time, not at registration
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".count"), 9.0);
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".peak"), 3.0);

    const std::string text = reg.prometheusText();
    const std::string prom = "laoram_test_" + src.substr(5);
    EXPECT_NE(text.find("# TYPE " + prom + "_count counter\n" + prom
                        + "_count 9\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE " + prom + "_peak gauge\n" + prom
                        + "_peak 3\n"),
              std::string::npos);
}

TEST_F(ObsMetricsTest, CountersKeepTotalsAfterSourceCloses)
{
    auto &reg = MetricsRegistry::instance();
    const std::uint64_t peak = 0;
    const std::string src = fresh("test.src");
    std::uint64_t first = 5, second = 2;
    {
        const MetricsSource a = testSource(src, first, peak);
        const MetricsSource b = testSource(src, second, peak);
        EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".count"), 7.0);
    }
    first = second = 100; // closed sources are no longer read
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".count"), 7.0);
    EXPECT_EQ(reg.counter(src + ".count").get(), 7u);

    std::uint64_t third = 1;
    const MetricsSource c = testSource(src, third, peak);
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".count"), 8.0);
}

TEST_F(ObsMetricsTest, HighWaterKeepsMaxAcrossSources)
{
    auto &reg = MetricsRegistry::instance();
    const std::uint64_t count = 0;
    const std::string src = fresh("test.src");
    std::uint64_t low = 4;
    {
        const std::uint64_t high = 10;
        const MetricsSource a = testSource(src, count, low);
        const MetricsSource b = testSource(src, count, high);
        EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".peak"), 10.0);
    }
    const MetricsSource a = testSource(src, count, low);
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".peak"), 10.0);
    low = 12;
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), src + ".peak"), 12.0);
}

TEST_F(ObsMetricsTest, LevelsSumOverLiveSourcesAndDropOnClose)
{
    auto &reg = MetricsRegistry::instance();
    const std::string name = fresh("test.level");
    auto levelSource = [&name](const std::uint64_t &v) {
        return MetricsSource(
            [&name, &v](PullSink &out) { out.level(name, "level", v); });
    };
    std::uint64_t first = 2, second = 5;
    {
        const MetricsSource a = levelSource(first);
        const MetricsSource b = levelSource(second);
        EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), name), 7.0);
        second = 1; // read at sampling time
        EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), name), 3.0);
        const std::string prom = "laoram_test_" + name.substr(5);
        EXPECT_NE(reg.prometheusText().find("# TYPE " + prom
                                            + " gauge\n" + prom + " 3\n"),
                  std::string::npos);
    }
    // Closed sources hold nothing, so nothing is folded.
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), name), 0.0);
    const MetricsSource c = levelSource(first);
    EXPECT_DOUBLE_EQ(valueOf(reg.snapshot(), name), 2.0);
}

/**
 * The pipeline's series are pulled from its run ledger and the
 * reorder window's Stats, the same numbers the report reads, so over
 * a Concurrent run with a prep pool their deltas equal the report
 * exactly: live at each window boundary, after the run, and after
 * the pipeline and engine are gone.
 */
TEST_F(ObsMetricsTest, PipelineSeriesReconcileWithTheReport)
{
    auto &reg = MetricsRegistry::instance();
    const char *series[] = {"pipeline.windows_served",
                            "pipeline.fill_ns", "pipeline.stall_ns",
                            "pipeline.reorder.hol_wait_ns"};
    std::vector<double> base;
    for (const char *name : series)
        base.push_back(std::max(0.0, valueOf(reg.snapshot(), name)));
    auto delta = [&](std::size_t i) {
        return valueOf(reg.snapshot(), series[i]) - base[i];
    };

    core::LaoramConfig cfg;
    cfg.base.numBlocks = 512;
    cfg.base.blockBytes = 64;
    cfg.base.seed = 11;
    cfg.superblockSize = 4;
    cfg.lookaheadWindow = 64;
    auto engine = std::make_unique<core::Laoram>(cfg);
    Rng rng(5);
    std::vector<oram::BlockId> trace(64 * 24);
    for (oram::BlockId &id : trace)
        id = rng.nextBounded(cfg.base.numBlocks);

    core::PipelineConfig pc;
    pc.windowAccesses = 64;
    pc.prepThreads = 2;
    pc.queueDepth = 2;
    std::vector<double> servedAtBoundary;
    pc.windowBoundaryHook = [&](std::uint64_t) {
        servedAtBoundary.push_back(delta(0));
    };
    auto pipe = std::make_unique<core::BatchPipeline>(*engine, pc);
    const core::PipelineReport rep = pipe->run(trace);

    ASSERT_EQ(rep.windows, 24u);
    ASSERT_EQ(servedAtBoundary.size(), 24u);
    for (std::size_t w = 0; w < servedAtBoundary.size(); ++w)
        EXPECT_EQ(servedAtBoundary[w], static_cast<double>(w + 1));
    const double want[] = {static_cast<double>(rep.windows),
                           rep.wallFillNs, rep.wallStallNs,
                           rep.wallReorderStallNs};
    for (std::size_t i = 0; i < std::size(series); ++i)
        EXPECT_EQ(delta(i), want[i]) << series[i];
    pipe.reset();
    engine.reset();
    for (std::size_t i = 0; i < std::size(series); ++i)
        EXPECT_EQ(delta(i), want[i])
            << series[i] << " after the pipeline closed";
}

/**
 * The sampler reads an engine's ledgers (meter and backend) while its
 * serving thread writes them: race-free under TSan, monotonic between
 * samples, and equal to the engine's own counters at the end, before
 * and after the engine is gone.
 */
TEST_F(ObsMetricsTest, SamplingWhileAnEngineServes)
{
    auto &reg = MetricsRegistry::instance();
    const char *series[] = {"oram.logical_accesses", "oram.path_reads",
                            "storage.dram.slots_read"};
    std::vector<double> base;
    for (const char *name : series)
        base.push_back(std::max(0.0, valueOf(reg.snapshot(), name)));

    oram::EngineConfig cfg;
    cfg.numBlocks = 256;
    cfg.blockBytes = 64;
    cfg.payloadBytes = 16;
    cfg.seed = 7;
    auto engine = std::make_unique<oram::PathOram>(cfg);

    std::atomic<bool> done{false};
    std::thread server([&] {
        for (oram::BlockId i = 0; i < 4000; ++i)
            engine->touch(i % cfg.numBlocks);
        done.store(true, std::memory_order_release);
    });
    std::vector<double> last(std::size(series), 0.0);
    while (!done.load(std::memory_order_acquire)) {
        const MetricsSnapshot snap = reg.snapshot();
        for (std::size_t i = 0; i < std::size(series); ++i) {
            const double v = valueOf(snap, series[i]);
            EXPECT_GE(v, last[i]) << series[i];
            last[i] = v;
        }
    }
    server.join();

    const mem::TrafficCounters traffic = engine->meter().counters();
    const double want[] = {
        static_cast<double>(traffic.logicalAccesses),
        static_cast<double>(traffic.pathReads),
        static_cast<double>(
            engine->storageForAudit().ioStats().slotsRead)};
    EXPECT_EQ(want[0], 4000.0);
    for (std::size_t i = 0; i < std::size(series); ++i)
        EXPECT_EQ(valueOf(reg.snapshot(), series[i]) - base[i], want[i])
            << series[i];
    engine.reset();
    for (std::size_t i = 0; i < std::size(series); ++i)
        EXPECT_EQ(valueOf(reg.snapshot(), series[i]) - base[i], want[i])
            << series[i] << " after the engine closed";
}

/**
 * An encrypted engine's storage publishes its crypto ledger: every
 * record the backend moved was sealed or opened once, in batches, and
 * the series keep their final values after the engine is gone.
 */
TEST_F(ObsMetricsTest, CryptoLedgerIsPulled)
{
    auto &reg = MetricsRegistry::instance();
    const char *series[] = {"crypto.records_sealed",
                            "crypto.records_opened"};
    std::vector<double> base;
    for (const char *name : series)
        base.push_back(std::max(0.0, valueOf(reg.snapshot(), name)));

    oram::EngineConfig cfg;
    cfg.numBlocks = 256;
    cfg.blockBytes = 64;
    cfg.payloadBytes = 64;
    cfg.encrypt = true;
    cfg.seed = 9;
    auto engine = std::make_unique<oram::PathOram>(cfg);
    for (oram::BlockId i = 0; i < 500; ++i)
        engine->touch(i % cfg.numBlocks);

    const storage::IoStats io = engine->storageForAudit().ioStats();
    const oram::CryptoStats c = engine->storageForAudit().cryptoStats();
    EXPECT_EQ(c.recordsSealed, io.slotsWritten);
    EXPECT_EQ(c.recordsOpened, io.slotsRead);
    const double want[] = {static_cast<double>(io.slotsWritten),
                           static_cast<double>(io.slotsRead)};
    for (std::size_t i = 0; i < std::size(series); ++i)
        EXPECT_EQ(valueOf(reg.snapshot(), series[i]) - base[i], want[i])
            << series[i];
    EXPECT_GT(valueOf(reg.snapshot(), "crypto.open_ns"), 0.0);
    engine.reset();
    for (std::size_t i = 0; i < std::size(series); ++i)
        EXPECT_EQ(valueOf(reg.snapshot(), series[i]) - base[i], want[i])
            << series[i] << " after the engine closed";
}

/**
 * The sampler contract: snapshot() runs concurrently with hot-path
 * updates and must stay race-free (this is the suite CI runs under
 * TSan) and never lose a counted increment by the time the writers
 * have joined.
 */
TEST_F(ObsMetricsTest, ConcurrentIncrementsSurviveSampling)
{
    auto &reg = MetricsRegistry::instance();
    Counter &c = reg.counter(fresh("test.race.counter"));
    Histogram &h = reg.histogram(fresh("test.race.hist"));

    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 50000;

    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const MetricsSnapshot snap = reg.snapshot();
            for (const auto &v : snap.values) {
                if (v.name.rfind("test.race.", 0) == 0) {
                    EXPECT_GE(v.value, 0.0);
                }
            }
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                h.record(i & 0xFF);
            }
        });
    }
    for (std::thread &t : writers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    sampler.join();

    EXPECT_EQ(c.get(), kThreads * kPerThread);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
}

} // namespace
} // namespace laoram::obs
