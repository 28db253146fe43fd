/**
 * @file
 * Unit tests for traffic accounting + simulated clock.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mem/traffic_meter.hh"
#include "obs/metrics.hh"

namespace laoram::mem {
namespace {

TEST(SimClock, AdvancesAndConverts)
{
    SimClock clk;
    EXPECT_EQ(clk.picoseconds(), 0u);
    clk.advanceNs(1.5);
    EXPECT_EQ(clk.picoseconds(), 1500u);
    clk.advancePs(500);
    EXPECT_DOUBLE_EQ(clk.nanoseconds(), 2.0);
    EXPECT_DOUBLE_EQ(clk.microseconds(), 0.002);
    clk.reset();
    EXPECT_EQ(clk.picoseconds(), 0u);
}

TEST(SimClock, FractionalAccumulationIsExact)
{
    SimClock clk;
    for (int i = 0; i < 1000; ++i)
        clk.advanceNs(0.001); // 1 ps each
    EXPECT_EQ(clk.picoseconds(), 1000u);
}

TEST(TrafficMeter, PathReadAccounting)
{
    TrafficMeter m{CostModel{}};
    m.recordPathReads(1, 1024, 8);
    m.recordPathReads(1, 1024, 8);
    // A union of three paths counts three path reads but only the
    // slots its node union fetched.
    m.recordPathReads(3, 1536, 12);
    EXPECT_EQ(m.counters().pathReads, 5u);
    EXPECT_EQ(m.counters().blocksRead, 28u);
    EXPECT_EQ(m.counters().bytesRead, 3584u);
    EXPECT_EQ(m.counters().bytesWritten, 0u);
    EXPECT_GT(m.clock().nanoseconds(), 0.0);
}

TEST(TrafficMeter, DummyAccountsBothDirections)
{
    TrafficMeter m{CostModel{}};
    m.recordDummyAccess(100, 4, 100, 4);
    EXPECT_EQ(m.counters().dummyReads, 1u);
    EXPECT_EQ(m.counters().bytesRead, 100u);
    EXPECT_EQ(m.counters().bytesWritten, 100u);
    EXPECT_EQ(m.counters().totalBytes(), 200u);
    // Read and write sizes are charged separately.
    m.recordDummyAccess(25, 1, 100, 4);
    EXPECT_EQ(m.counters().blocksRead, 5u);
    EXPECT_EQ(m.counters().blocksWritten, 8u);
    EXPECT_EQ(m.counters().bytesRead, 125u);
    EXPECT_EQ(m.counters().bytesWritten, 200u);
}

TEST(TrafficMeter, PerAccessRatios)
{
    TrafficMeter m{CostModel{}};
    m.recordLogicalAccesses(4);
    m.recordDummyAccess(10, 1, 10, 1);
    m.recordPathReads(1, 10, 1);
    EXPECT_DOUBLE_EQ(m.counters().dummyReadsPerAccess(), 0.25);
    EXPECT_DOUBLE_EQ(m.counters().pathReadsPerAccess(), 0.25);
}

TEST(TrafficMeter, RatiosWithZeroAccesses)
{
    TrafficMeter m{CostModel{}};
    EXPECT_DOUBLE_EQ(m.counters().dummyReadsPerAccess(), 0.0);
}

TEST(TrafficMeter, StashPeakIsHighWater)
{
    TrafficMeter m{CostModel{}};
    m.observeStashSize(10);
    m.observeStashSize(4);
    m.observeStashSize(25);
    m.observeStashSize(7);
    EXPECT_EQ(m.counters().stashPeak, 25u);
}

TEST(TrafficMeter, SinceComputesInterval)
{
    TrafficMeter m{CostModel{}};
    m.recordPathReads(1, 100, 2);
    const TrafficCounters start = m.counters();
    m.recordPathReads(1, 100, 2);
    m.recordPathWrites(1, 50, 1);
    const TrafficCounters d = m.counters().since(start);
    EXPECT_EQ(d.pathReads, 1u);
    EXPECT_EQ(d.pathWrites, 1u);
    EXPECT_EQ(d.bytesRead, 100u);
    EXPECT_EQ(d.bytesWritten, 50u);
}

TEST(TrafficMeter, ReshuffleBypassesPathCounters)
{
    TrafficMeter m{CostModel{}};
    m.recordReshuffle(64, 2, 256, 8);
    EXPECT_EQ(m.counters().reshuffles, 1u);
    EXPECT_EQ(m.counters().pathReads, 0u);
    EXPECT_EQ(m.counters().pathWrites, 0u);
    EXPECT_EQ(m.counters().blocksRead, 2u);
    EXPECT_EQ(m.counters().blocksWritten, 8u);
}

/** @p name's value in a fresh registry snapshot (0 when absent). */
double
sampled(const std::string &name)
{
    for (const auto &v : obs::MetricsRegistry::instance().snapshot().values)
        if (v.name == name)
            return v.value;
    return 0.0;
}

TEST(TrafficMeter, LiveMetricsPullTheLedger)
{
    // The registry reads the meter's own counters whenever it is
    // sampled and keeps them once the meter is gone.
    const double reads = sampled("oram.path_reads");
    const double dummies = sampled("oram.dummy_reads");
    const double bytes = sampled("oram.bytes_read");
    {
        TrafficMeter m{CostModel{}};
        m.recordPathReads(2, 100, 2);
        m.recordDummyAccess(100, 2, 100, 2);
        EXPECT_EQ(sampled("oram.path_reads") - reads, 2.0);
        EXPECT_EQ(sampled("oram.dummy_reads") - dummies, 1.0);
        EXPECT_EQ(sampled("oram.bytes_read") - bytes, 200.0);
        m.recordPathReads(1, 100, 2);
    }
    EXPECT_EQ(sampled("oram.path_reads") - reads, 3.0);
    EXPECT_EQ(sampled("oram.dummy_reads") - dummies, 1.0);
    EXPECT_EQ(sampled("oram.bytes_read") - bytes, 300.0);
}

TEST(TrafficMeter, SummaryMentionsLabel)
{
    TrafficMeter m{CostModel{}};
    std::ostringstream os;
    m.printSummary(os, "testlabel");
    EXPECT_NE(os.str().find("testlabel"), std::string::npos);
}

} // namespace
} // namespace laoram::mem
