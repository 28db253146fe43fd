/**
 * @file
 * Unit tests for the latency/bandwidth cost model.
 */

#include <gtest/gtest.h>

#include "mem/cost_model.hh"

namespace laoram::mem {
namespace {

TEST(CostModel, ZeroTrafficStillPaysLatency)
{
    CostModel m;
    EXPECT_GT(m.pathReadNs(0, 0), 0.0);
    EXPECT_GT(m.pathWriteNs(0, 0), 0.0);
}

TEST(CostModel, MonotoneInBytes)
{
    CostModel m;
    EXPECT_LT(m.pathReadNs(1024, 4), m.pathReadNs(4096, 4));
    EXPECT_LT(m.pathWriteNs(1024, 4), m.pathWriteNs(4096, 4));
}

TEST(CostModel, MonotoneInBlocks)
{
    CostModel m;
    EXPECT_LT(m.pathReadNs(1024, 4), m.pathReadNs(1024, 40));
}

TEST(CostModel, DummyIsReadPlusWrite)
{
    CostModel m;
    EXPECT_DOUBLE_EQ(m.dummyAccessNs(2048, 16, 2048, 16),
                     m.pathReadNs(2048, 16) + m.pathWriteNs(2048, 16));
    EXPECT_DOUBLE_EQ(m.dummyAccessNs(256, 2, 2048, 16),
                     m.pathReadNs(256, 2) + m.pathWriteNs(2048, 16));
}

TEST(CostModel, ReadIncludesLinkRoundTrip)
{
    CostModelParams p;
    p.linkLatencyNs = 5000.0;
    CostModel m(p);
    // Reads pay the client link round trip; write-backs do not.
    EXPECT_GT(m.pathReadNs(0, 0), m.pathWriteNs(0, 0) + 4000.0);
}

TEST(CostModel, BandwidthScalesTransferTerm)
{
    CostModelParams slow;
    slow.dramBandwidthGBps = 1.0;
    CostModelParams fast = slow;
    fast.dramBandwidthGBps = 100.0;
    CostModel ms(slow), mf(fast);
    const double ds = ms.pathReadNs(1 << 20, 0) - ms.pathReadNs(0, 0);
    const double df = mf.pathReadNs(1 << 20, 0) - mf.pathReadNs(0, 0);
    EXPECT_GT(ds, df * 10);
}

TEST(CostModel, GBpsEqualsBytesPerNs)
{
    CostModelParams p;
    p.dramLatencyNs = 0;
    p.linkLatencyNs = 0;
    p.clientPerBlockNs = 0;
    p.dramBandwidthGBps = 2.0;
    p.linkBandwidthGBps = 2.0;
    CostModel m(p);
    // 2000 bytes over 2 GB/s DRAM + 2 GB/s link = 1000 + 1000 ns... no:
    // each leg moves the same bytes, so 2000/2 + 2000/2 = 2000 ns.
    EXPECT_DOUBLE_EQ(m.pathReadNs(2000, 0), 2000.0);
}

} // namespace
} // namespace laoram::mem
