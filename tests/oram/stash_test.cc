/**
 * @file
 * Stash container tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "../common/stash_io.hh"
#include "oram/path_oram.hh"
#include "oram/stash.hh"
#include "util/rng.hh"
#include "util/serde.hh"

namespace laoram::oram {
namespace {

TEST(Stash, EmptyOnConstruction)
{
    Stash s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.find(1), nullptr);
    EXPECT_FALSE(s.contains(1));
}

TEST(Stash, PutFindErase)
{
    Stash s;
    stashio::put(s, 7, 3, {1, 2, 3});
    ASSERT_TRUE(s.contains(7));
    StashEntry *e = s.find(7);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->leaf, 3u);
    EXPECT_EQ(e->payload, (std::vector<std::uint8_t>{1, 2, 3}));
    s.erase(7);
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.empty());
}

TEST(Stash, PutOverwrites)
{
    Stash s;
    stashio::put(s, 1, 2, {9});
    stashio::put(s, 1, 5, {8, 8});
    EXPECT_EQ(s.size(), 1u);
    EXPECT_EQ(s.find(1)->leaf, 5u);
    EXPECT_EQ(s.find(1)->payload.size(), 2u);
}

TEST(Stash, PayloadLessPutKeepsExistingPayload)
{
    Stash s;
    stashio::put(s, 1, 2, {7, 7});
    s.findOrCreate(1, 9, 0); // leaf-only update
    EXPECT_EQ(s.find(1)->leaf, 9u);
    EXPECT_EQ(s.find(1)->payload, (std::vector<std::uint8_t>{7, 7}));
}

TEST(Stash, IterationCoversAll)
{
    Stash s;
    for (BlockId id = 0; id < 10; ++id)
        s.findOrCreate(id, id * 2, 0);
    std::uint64_t seen = 0;
    for (const auto &[id, entry] : s) {
        EXPECT_EQ(entry.leaf, id * 2);
        ++seen;
    }
    EXPECT_EQ(seen, 10u);
}

TEST(Stash, MutableLeafViaIteration)
{
    Stash s;
    s.findOrCreate(1, 0, 0);
    for (auto &[id, entry] : s)
        entry.leaf = 42;
    EXPECT_EQ(s.find(1)->leaf, 42u);
}

TEST(Stash, ResidentBytesScalesWithSize)
{
    Stash s;
    EXPECT_EQ(s.residentBytes(100), 0u);
    s.findOrCreate(1, 0, 0);
    s.findOrCreate(2, 0, 0);
    EXPECT_EQ(s.residentBytes(100), 2 * (8 + 8 + 100));
}

/**
 * The first @p count ids whose home is cell (2^bits - 1) — or cell 0
 * when @p last is false — in every index of at most 2^20 cells:
 * Fibonacci hashing takes the top bits, so ids agreeing in their top
 * 20 hash bits collide at every smaller index size too.
 */
std::vector<BlockId>
collidingIds(std::size_t count, bool last)
{
    constexpr unsigned kBits = 20;
    const std::size_t want = last ? (std::size_t{1} << kBits) - 1 : 0;
    std::vector<BlockId> ids;
    for (BlockId id = 1; ids.size() < count; ++id) {
        if (Stash::homeCell(id, kBits) == want)
            ids.push_back(id);
    }
    return ids;
}

/** Reference model: contents by id plus the expected slab order. */
struct Model
{
    struct Ref
    {
        Leaf leaf = 0;
        bool pinned = false;
        std::vector<std::uint8_t> payload;
    };
    std::map<BlockId, Ref> byId;
    std::vector<BlockId> order;

    void
    erase(BlockId id)
    {
        byId.erase(id);
        order.erase(std::find(order.begin(), order.end(), id));
    }
};

/** Compare every observable of @p s with @p m; "" when they agree. */
std::string
mismatch(const Stash &s, const Model &m)
{
    if (s.size() != m.byId.size())
        return "size " + std::to_string(s.size()) + " vs "
            + std::to_string(m.byId.size());
    std::size_t pos = 0;
    for (const auto &[id, entry] : s) {
        if (id != m.order[pos])
            return "slab position " + std::to_string(pos) + " holds "
                + std::to_string(id) + ", model expects "
                + std::to_string(m.order[pos]);
        const Model::Ref &ref = m.byId.at(id);
        if (entry.leaf != ref.leaf || entry.pinned != ref.pinned
            || entry.payload != ref.payload)
            return "entry " + std::to_string(id) + " differs";
        ++pos;
    }
    for (const auto &[id, ref] : m.byId) {
        const StashEntry *e = s.find(id);
        if (!e || e->leaf != ref.leaf || !s.contains(id))
            return "find(" + std::to_string(id) + ") disagrees";
    }
    return {};
}

std::vector<std::uint8_t>
saved(const Stash &s)
{
    serde::Serializer ser;
    s.save(ser);
    return ser.take();
}

TEST(Stash, RandomOpsMatchReferenceModel)
{
    // Ids: a dense low range plus two colliding families — one homed
    // at the index's last cell, whose probe chains wrap to cell 0, and
    // one homed at cell 0, which those wrapped chains run into. Every
    // erase then exercises backward-shift deletion across the wrap.
    std::vector<BlockId> pool;
    for (BlockId id = 0; id < 40; ++id)
        pool.push_back(id);
    for (BlockId id : collidingIds(6, true))
        pool.push_back(id);
    for (BlockId id : collidingIds(6, false))
        pool.push_back(id);

    Rng rng(20231017);
    Stash s;
    Model m;
    for (int step = 0; step < 20000; ++step) {
        const BlockId id = pool[rng.nextBounded(pool.size())];
        const Leaf leaf = rng.nextBounded(1000);
        const bool present = m.byId.count(id) != 0;
        switch (rng.nextBounded(8)) {
          case 0:
          case 1: { // put with payload (insert or overwrite)
            std::vector<std::uint8_t> payload(rng.nextBounded(12));
            for (auto &b : payload)
                b = static_cast<std::uint8_t>(rng.next());
            stashio::put(s, id, leaf, payload);
            if (!present)
                m.order.push_back(id);
            m.byId[id].leaf = leaf;
            m.byId[id].payload = payload;
            break;
          }
          case 2: { // payload-less put / findOrCreate
            const std::size_t zeros = rng.nextBounded(2) ? 0 : 8;
            s.findOrCreate(id, leaf, zeros);
            if (!present) {
                m.order.push_back(id);
                m.byId[id].payload.assign(zeros, 0);
            }
            m.byId[id].leaf = leaf;
            break;
          }
          case 3: // single erase, present or not
            s.erase(id);
            if (present)
                m.erase(id);
            break;
          case 4: { // bulk erase of a random subset of positions
            std::vector<std::uint32_t> positions;
            std::vector<BlockId> gone;
            for (std::uint32_t pos = 0; pos < s.size(); ++pos) {
                if (rng.nextBounded(3) == 0) {
                    positions.push_back(pos);
                    gone.push_back(m.order[pos]);
                }
            }
            std::reverse(positions.begin(), positions.end());
            s.eraseAt(positions.data(), positions.size());
            for (BlockId g : gone)
                m.erase(g);
            break;
          }
          case 5: // pin toggling through find
            if (present) {
                const bool pin = rng.nextBounded(2) != 0;
                s.find(id)->pinned = pin;
                m.byId[id].pinned = pin;
            } else {
                ASSERT_EQ(s.find(id), nullptr);
            }
            break;
          case 6:
            if (rng.nextBounded(50) == 0) {
                s.unpinAll();
                for (auto &[rid, ref] : m.byId)
                    ref.pinned = false;
            }
            break;
          case 7: { // save/restore round trip
            const std::vector<std::uint8_t> bytes = saved(s);
            Stash copy;
            stashio::put(copy, 999999, 1, {1}); // restore replaces contents
            serde::Deserializer d(bytes);
            copy.restore(d);
            ASSERT_EQ(mismatch(copy, m), "") << "restored, step " << step;
            ASSERT_EQ(saved(copy), bytes) << "step " << step;
            break;
          }
        }
        ASSERT_EQ(mismatch(s, m), "") << "step " << step;
    }
}

TEST(Stash, RestoreRefusesDuplicateIds)
{
    serde::Serializer ser;
    ser.u64(2);
    for (int i = 0; i < 2; ++i) {
        ser.u64(7);
        ser.u64(1);
        ser.u8(0);
        ser.blob(std::vector<std::uint8_t>{});
    }
    const std::vector<std::uint8_t> bytes = ser.take();
    serde::Deserializer d(bytes);
    Stash s;
    EXPECT_THROW(s.restore(d), serde::SnapshotError);
}

TEST(Stash, BackwardShiftAcrossWrappedChain)
{
    // Three ids homed at the last cell fill it and wrap into cells 0
    // and 1; an id homed at cell 0 lands behind them. Erasing the
    // chain's head must shift every survivor back without losing one.
    const std::vector<BlockId> tail = collidingIds(3, true);
    const std::vector<BlockId> head = collidingIds(1, false);
    Stash s;
    for (BlockId id : tail)
        s.findOrCreate(id, id % 7, 0);
    s.findOrCreate(head[0], 5, 0);
    for (BlockId gone : {tail[0], tail[1]}) {
        s.erase(gone);
        EXPECT_FALSE(s.contains(gone));
        for (BlockId id : tail) {
            if (id != tail[0] && id != tail[1]) {
                EXPECT_EQ(s.find(id)->leaf, id % 7);
            }
        }
        ASSERT_NE(s.find(head[0]), nullptr);
        EXPECT_EQ(s.find(head[0])->leaf, 5u);
    }
    EXPECT_EQ(s.size(), 2u);
}

TEST(Stash, RecycledPayloadKeepsCapacityAndIsCleared)
{
    Stash s;
    stashio::put(s, 1, 3, std::vector<std::uint8_t>(64, 0xAB));
    const std::uint8_t *buffer = s.find(1)->payload.data();
    s.erase(1);

    // The next new entry reuses the erased entry's buffer...
    StashEntry &zeroed = s.findOrCreate(2, 4, 64);
    EXPECT_EQ(zeroed.payload.data(), buffer);
    EXPECT_GE(zeroed.payload.capacity(), 64u);
    // ...but never its bytes or its pin.
    EXPECT_EQ(zeroed.payload, std::vector<std::uint8_t>(64, 0));
    EXPECT_FALSE(zeroed.pinned);

    zeroed.pinned = true;
    zeroed.payload.assign(64, 0xCD);
    s.erase(2);
    EXPECT_TRUE(s.findOrCreate(3, 0, 0).payload.empty());
    s.erase(3);
    EXPECT_EQ(stashio::put(s, 4, 0, {1, 2}).payload,
              (std::vector<std::uint8_t>{1, 2}));
    EXPECT_FALSE(s.find(4)->pinned);
}

TEST(Stash, EngineZeroFillsFreshBlocksAfterRecycling)
{
    // Blocks written earlier cycle through the stash and free their
    // buffers; a never-written block must still read as zeros.
    EngineConfig cfg;
    cfg.numBlocks = 64;
    cfg.payloadBytes = 16;
    cfg.seed = 7;
    PathOram oram(cfg);
    for (BlockId id = 0; id < 32; ++id)
        oram.writeBlock(id, std::vector<std::uint8_t>(16, 0xEE));
    std::vector<std::uint8_t> out;
    for (BlockId id = 32; id < 64; ++id) {
        oram.readBlock(id, out);
        ASSERT_EQ(out, std::vector<std::uint8_t>(16, 0)) << "block " << id;
    }
}

} // namespace
} // namespace laoram::oram
