/**
 * @file
 * Server-storage tests: record round trips, dummies, encryption at
 * rest, and the adversary access sink.
 */

#include <gtest/gtest.h>

#include <vector>

#include "../common/slot_io.hh"
#include "oram/server_storage.hh"

namespace laoram::oram {
namespace {

TreeGeometry
smallGeom()
{
    return TreeGeometry(64, 64, BucketProfile::uniform(4));
}

TEST(ServerStorage, StartsAllDummies)
{
    auto g = smallGeom();
    ServerStorage s(g, 32, false);
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); slot += 17) {
        slotio::read(s, slot, b);
        EXPECT_TRUE(b.isDummy());
    }
}

TEST(ServerStorage, WriteReadRoundTrip)
{
    auto g = smallGeom();
    ServerStorage s(g, 32, false);
    std::vector<std::uint8_t> payload(32);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 3);

    slotio::write(s, 10, 1234, 7, payload.data(), payload.size());
    StoredBlock b;
    slotio::read(s, 10, b);
    EXPECT_EQ(b.id, 1234u);
    EXPECT_EQ(b.leaf, 7u);
    EXPECT_EQ(b.payload, payload);
    EXPECT_FALSE(b.isDummy());
}

TEST(ServerStorage, ShortPayloadZeroPadded)
{
    auto g = smallGeom();
    ServerStorage s(g, 16, false);
    std::vector<std::uint8_t> payload{1, 2, 3};
    slotio::write(s, 0, 5, 1, payload.data(), payload.size());
    StoredBlock b;
    slotio::read(s, 0, b);
    ASSERT_EQ(b.payload.size(), 16u);
    EXPECT_EQ(b.payload[0], 1);
    EXPECT_EQ(b.payload[2], 3);
    for (std::size_t i = 3; i < 16; ++i)
        EXPECT_EQ(b.payload[i], 0);
}

TEST(ServerStorage, DummyOverwriteErases)
{
    auto g = smallGeom();
    ServerStorage s(g, 8, false);
    std::vector<std::uint8_t> payload(8, 0xAA);
    slotio::write(s, 3, 42, 9, payload.data(), payload.size());
    slotio::writeDummy(s, 3);
    StoredBlock b;
    slotio::read(s, 3, b);
    EXPECT_TRUE(b.isDummy());
}

TEST(ServerStorage, ZeroPayloadMode)
{
    auto g = smallGeom();
    ServerStorage s(g, 0, false);
    EXPECT_EQ(s.payloadBytes(), 0u);
    EXPECT_EQ(s.recordBytes(), 16u);
    slotio::write(s, 1, 77, 3, nullptr, 0);
    StoredBlock b;
    slotio::read(s, 1, b);
    EXPECT_EQ(b.id, 77u);
    EXPECT_EQ(b.leaf, 3u);
    EXPECT_TRUE(b.payload.empty());
}

TEST(ServerStorage, EncryptedRoundTrip)
{
    auto g = smallGeom();
    ServerStorage s(g, 32, true, /*keySeed=*/99);
    std::vector<std::uint8_t> payload(32, 0x5C);
    slotio::write(s, 20, 8, 2, payload.data(), payload.size());
    StoredBlock b;
    slotio::read(s, 20, b);
    EXPECT_EQ(b.id, 8u);
    EXPECT_EQ(b.leaf, 2u);
    EXPECT_EQ(b.payload, payload);
    // Re-read works (epoch unchanged between writes).
    slotio::read(s, 20, b);
    EXPECT_EQ(b.id, 8u);
}

TEST(ServerStorage, EncryptedRewriteStillReads)
{
    auto g = smallGeom();
    ServerStorage s(g, 16, true, 3);
    std::vector<std::uint8_t> p1(16, 1), p2(16, 2);
    slotio::write(s, 4, 10, 0, p1.data(), p1.size());
    slotio::write(s, 4, 11, 1, p2.data(), p2.size());
    StoredBlock b;
    slotio::read(s, 4, b);
    EXPECT_EQ(b.id, 11u);
    EXPECT_EQ(b.payload, p2);
}

TEST(ServerStorage, EncryptedDummiesDecryptCleanly)
{
    auto g = smallGeom();
    ServerStorage s(g, 8, true, 5);
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); slot += 29) {
        slotio::read(s, slot, b);
        EXPECT_TRUE(b.isDummy());
    }
}

TEST(ServerStorage, ResidentBytesMatchLayout)
{
    auto g = smallGeom();
    ServerStorage s(g, 48, false);
    EXPECT_EQ(s.residentBytes(), g.totalSlots() * (16 + 48));
}

TEST(ServerStorage, AccessSinkSeesReadsAndWrites)
{
    auto g = smallGeom();
    ServerStorage s(g, 0, false);
    std::vector<std::pair<std::uint64_t, bool>> log;
    s.setAccessSink([&](std::uint64_t slot, bool write) {
        log.emplace_back(slot, write);
    });
    StoredBlock b;
    slotio::read(s, 7, b);
    slotio::write(s, 9, 1, 0, nullptr, 0);
    slotio::writeDummy(s, 11);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], std::make_pair(std::uint64_t{7}, false));
    EXPECT_EQ(log[1], std::make_pair(std::uint64_t{9}, true));
    EXPECT_EQ(log[2], std::make_pair(std::uint64_t{11}, true));
}

} // namespace
} // namespace laoram::oram
