/**
 * @file
 * PathIo tests: path reads absorb blocks, greedy write-back places
 * deepest-first and honours the per-bucket reserve, every call
 * charges the meter it is bound to, and the tree auditor catches
 * corruption.
 */

#include <gtest/gtest.h>

#include "../common/slot_io.hh"
#include "../common/stash_io.hh"
#include "oram/evictor.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

struct PathIoFixture : public ::testing::Test
{
    PathIoFixture()
        : geom(64, 8, BucketProfile::uniform(4)),
          storage(geom, 8, false),
          rng(7),
          posmap(64, geom.numLeaves(), rng),
          io(geom, storage, stash, meter)
    {
    }

    /** Read one path; @return real blocks absorbed. */
    std::uint64_t readOne(Leaf leaf) { return io.readPaths(&leaf, 1); }

    /** Write one path back; @return real blocks written. */
    std::uint64_t writeOne(Leaf leaf) { return io.writePaths(&leaf, 1); }

    std::vector<std::uint8_t>
    payloadFor(BlockId id)
    {
        return std::vector<std::uint8_t>(8,
                                         static_cast<std::uint8_t>(id));
    }

    TreeGeometry geom;
    ServerStorage storage;
    Rng rng;
    PositionMap posmap;
    Stash stash;
    mem::TrafficMeter meter{mem::CostModel{}};
    PathIo io;
};

TEST_F(PathIoFixture, ReadEmptyPathAbsorbsNothing)
{
    EXPECT_EQ(readOne(0), 0u);
    EXPECT_TRUE(stash.empty());
}

TEST_F(PathIoFixture, WriteThenReadRoundTripsBlock)
{
    const Leaf leaf = 5;
    posmap.set(1, leaf);
    stashio::put(stash, 1, leaf, payloadFor(1));
    EXPECT_EQ(writeOne(leaf), 1u);
    EXPECT_TRUE(stash.empty());

    EXPECT_EQ(readOne(leaf), 1u);
    ASSERT_TRUE(stash.contains(1));
    EXPECT_EQ(stash.find(1)->leaf, leaf);
    EXPECT_EQ(stash.find(1)->payload, payloadFor(1));
}

TEST_F(PathIoFixture, BlockOnOwnLeafGoesToLeafBucket)
{
    // A block whose assigned leaf equals the written path should land
    // in the deepest (leaf) bucket.
    const Leaf leaf = 3;
    posmap.set(2, leaf);
    stashio::put(stash, 2, leaf, payloadFor(2));
    writeOne(leaf);

    const NodeIndex leaf_node = geom.pathNode(leaf, geom.leafLevel());
    StoredBlock b;
    bool found = false;
    const std::uint64_t base = geom.nodeSlotBase(leaf_node);
    for (std::uint64_t s = 0; s < geom.bucketSize(geom.leafLevel());
         ++s) {
        slotio::read(storage, base + s, b);
        if (!b.isDummy() && b.id == 2)
            found = true;
    }
    EXPECT_TRUE(found) << "block should be placed at its own leaf";
}

TEST_F(PathIoFixture, DivergentBlockStaysNearRoot)
{
    // Block assigned to the opposite half of the tree can only share
    // the root with the written path.
    const Leaf block_leaf = 0;
    const Leaf write_leaf = geom.numLeaves() - 1;
    posmap.set(3, block_leaf);
    stashio::put(stash, 3, block_leaf, payloadFor(3));
    writeOne(write_leaf);
    EXPECT_TRUE(stash.empty()) << "root must have had space";

    StoredBlock b;
    bool in_root = false;
    for (std::uint64_t s = 0; s < geom.bucketSize(0); ++s) {
        slotio::read(storage, geom.nodeSlotBase(0) + s, b);
        if (!b.isDummy() && b.id == 3)
            in_root = true;
    }
    EXPECT_TRUE(in_root);
}

TEST_F(PathIoFixture, OverflowingBlocksStayInStash)
{
    // More same-leaf blocks than the path can hold: the surplus must
    // remain stashed, never dropped.
    const Leaf leaf = 9;
    const std::uint64_t capacity = geom.pathSlots();
    const std::uint64_t surplus = 5;
    for (BlockId id = 0; id < capacity + surplus; ++id) {
        if (id >= geom.numBlocks())
            break;
        posmap.set(id, leaf);
        stashio::put(stash, id, leaf, payloadFor(id));
    }
    const std::uint64_t staged = stash.size();
    const std::uint64_t written = writeOne(leaf);
    EXPECT_EQ(written, std::min(staged, capacity));
    EXPECT_EQ(stash.size(), staged - written);
}

TEST_F(PathIoFixture, AuditPassesAfterRandomChurn)
{
    // Random accesses through raw PathIo keep the invariant.
    for (int round = 0; round < 200; ++round) {
        const BlockId id = rng.nextBounded(geom.numBlocks());
        const Leaf cur = posmap.get(id);
        readOne(cur);
        const Leaf next = rng.nextBounded(geom.numLeaves());
        posmap.set(id, next);
        if (StashEntry *e = stash.find(id))
            e->leaf = next;
        else
            stashio::put(stash, id, next, payloadFor(id));
        writeOne(cur);
    }
    EXPECT_EQ(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(PathIoFixture, SinglePathReadsDeepestFirst)
{
    // A single path is a union of one: its nodes are fetched leaf
    // first, root last, each node's slots in order.
    std::vector<std::uint64_t> order;
    storage.setAccessSink([&](std::uint64_t slot, bool write) {
        if (!write)
            order.push_back(slot);
    });
    const Leaf leaf = 11;
    readOne(leaf);
    std::vector<std::uint64_t> expect;
    for (unsigned level = geom.numLevels(); level-- > 0;) {
        const std::uint64_t base =
            geom.nodeSlotBase(geom.pathNode(leaf, level));
        for (std::uint64_t s = 0; s < geom.bucketSize(level); ++s)
            expect.push_back(base + s);
    }
    EXPECT_EQ(order, expect);
}

TEST_F(PathIoFixture, MeterChargesSlotsTimesBlockBytes)
{
    readOne(4);
    writeOne(4);
    const Leaf sharedPrefix[] = {0, 1};
    io.readPaths(sharedPrefix, 2);
    const mem::TrafficCounters &c = meter.counters();
    // Sibling leaves share every node but the leaf bucket.
    const std::uint64_t unionSlots =
        geom.pathSlots() + geom.bucketSize(geom.leafLevel());
    EXPECT_EQ(c.pathReads, 3u);
    EXPECT_EQ(c.pathWrites, 1u);
    EXPECT_EQ(c.blocksRead, geom.pathSlots() + unionSlots);
    EXPECT_EQ(c.bytesRead, c.blocksRead * geom.blockBytes());
    EXPECT_EQ(c.blocksWritten, geom.pathSlots());
    EXPECT_EQ(c.bytesWritten, geom.pathBytes());
    EXPECT_EQ(c.dummyReads, 0u);
}

TEST_F(PathIoFixture, DummyAccessKeepsBlocksAndChargesOneDummy)
{
    const Leaf leaf = 7;
    posmap.set(1, leaf);
    stashio::put(stash, 1, leaf, payloadFor(1));
    writeOne(leaf);
    const mem::TrafficCounters before = meter.counters();

    io.dummyAccess(leaf);
    EXPECT_TRUE(stash.empty()) << "the block goes straight back";
    EXPECT_EQ(auditTree(geom, storage, stash, posmap), "");
    const mem::TrafficCounters d = meter.counters().since(before);
    EXPECT_EQ(d.dummyReads, 1u);
    EXPECT_EQ(d.pathReads, 0u);
    EXPECT_EQ(d.pathWrites, 0u);
    EXPECT_EQ(d.blocksRead, geom.pathSlots());
    EXPECT_EQ(d.blocksWritten, geom.pathSlots());
    EXPECT_EQ(d.bytesRead, geom.pathBytes());

    readOne(leaf);
    ASSERT_TRUE(stash.contains(1));
    EXPECT_EQ(stash.find(1)->payload, payloadFor(1));
}

TEST_F(PathIoFixture, AuditCatchesMisplacedBlock)
{
    // Plant a block on a node that is NOT on its mapped path.
    posmap.set(4, 0);
    const Leaf other = geom.numLeaves() - 1;
    const NodeIndex wrong = geom.pathNode(other, geom.leafLevel());
    auto payload = payloadFor(4);
    slotio::write(storage, geom.nodeSlotBase(wrong), 4, 0,
                  payload.data(), payload.size());
    EXPECT_NE(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesStaleLeafField)
{
    posmap.set(6, 2);
    auto payload = payloadFor(6);
    // Stored leaf (7) disagrees with the position map (2).
    slotio::write(storage, geom.nodeSlotBase(0), 6, 7, payload.data(),
                  payload.size());
    EXPECT_NE(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(PathIoFixture, AuditCatchesTreeStashDuplicate)
{
    const Leaf leaf = 1;
    posmap.set(8, leaf);
    auto payload = payloadFor(8);
    slotio::write(storage, geom.nodeSlotBase(0), 8, leaf,
                  payload.data(), payload.size());
    stashio::put(stash, 8, leaf, payloadFor(8));
    EXPECT_NE(auditTree(geom, storage, stash, posmap), "");
}

/** A tree driven through a PathIo that keeps @p reserve slots free. */
struct ReservedTree
{
    ReservedTree(const TreeGeometry &geom, mem::TrafficMeter &meter,
                 std::uint64_t reserve)
        : geom(geom),
          storage(geom, 8, false),
          rng(19),
          posmap(geom.numBlocks(), geom.numLeaves(), rng),
          io(geom, storage, stash, meter, reserve)
    {
    }

    /** Read @p id's path, remap the block, write the path back. */
    void
    access(BlockId id)
    {
        const Leaf cur = posmap.get(id);
        io.readPaths(&cur, 1);
        const Leaf next = rng.nextBounded(geom.numLeaves());
        posmap.set(id, next);
        stash.findOrCreate(id, next, 8);
        io.writePaths(&cur, 1);
    }

    const TreeGeometry &geom;
    ServerStorage storage;
    Rng rng;
    PositionMap posmap;
    Stash stash;
    PathIo io;
};

TEST_F(PathIoFixture, ReserveCapsRealBlocksPerBucket)
{
    const std::uint64_t z = geom.bucketSize(0);
    for (std::uint64_t r = 1; r < z; ++r) {
        ReservedTree tree(geom, meter, r);
        for (int round = 0; round < 300; ++round) {
            tree.access(tree.rng.nextBounded(geom.numBlocks()));
            // Each written bucket is z consecutive ops.
            const auto &ops = tree.io.lastWrite();
            ASSERT_EQ(ops.size(), geom.pathSlots());
            for (std::size_t b = 0; b < ops.size(); b += z) {
                std::uint64_t real = 0;
                for (std::size_t s = 0; s < z; ++s)
                    real += ops[b + s].id != kInvalidBlock ? 1 : 0;
                ASSERT_LE(real, z - r) << "reserve " << r;
                for (std::size_t s = z - r; s < z; ++s)
                    ASSERT_EQ(ops[b + s].id, kInvalidBlock)
                        << "reserve " << r << " slot " << s;
            }
        }
        // The tree itself: every bucket's last r slots are dummies.
        StoredBlock b;
        for (NodeIndex node = 0; node < geom.numNodes(); ++node) {
            const std::uint64_t base = geom.nodeSlotBase(node);
            for (std::uint64_t s = z - r; s < z; ++s) {
                slotio::read(tree.storage, base + s, b);
                ASSERT_TRUE(b.isDummy())
                    << "reserve " << r << " node " << node;
            }
        }
        EXPECT_EQ(auditTree(geom, tree.storage, tree.stash, tree.posmap),
                  "");
    }
}

/** Running FNV-1a 64 over 64-bit words. */
void
fnv(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001b3ull;
    }
}

TEST_F(PathIoFixture, ReserveMovesPlacementNotTrace)
{
    // Digests of the (slot, isWrite) sequence the server sees and of
    // the (slot, id) placements the write-backs made.
    struct Run
    {
        std::uint64_t trace = 0xcbf29ce484222325ull;
        std::uint64_t placement = 0xcbf29ce484222325ull;
    };
    auto run = [&](std::uint64_t reserve) {
        ReservedTree tree(geom, meter, reserve);
        Run out;
        tree.storage.setAccessSink([&](std::uint64_t slot, bool write) {
            fnv(out.trace, slot);
            fnv(out.trace, write ? 1 : 0);
        });
        for (int round = 0; round < 300; ++round) {
            tree.access(tree.rng.nextBounded(geom.numBlocks()));
            for (const auto &op : tree.io.lastWrite()) {
                fnv(out.placement, op.slot);
                fnv(out.placement, op.id);
            }
        }
        return out;
    };
    const Run free = run(0);
    // Pinned: a reserve of 0 leaves PathIo's trace as it was before
    // the reserve existed.
    EXPECT_EQ(free.trace, 0x0389cba011a2f21dull);
    // Full paths are read and written either way; only where the
    // blocks land changes.
    const Run reserved = run(2);
    EXPECT_EQ(reserved.trace, free.trace);
    EXPECT_NE(reserved.placement, free.placement);
}

TEST_F(PathIoFixture, FatTreePathHoldsMoreBlocks)
{
    TreeGeometry fat_geom(64, 8, BucketProfile::fat(4));
    ServerStorage fat_storage(fat_geom, 8, false);
    Stash fat_stash;
    PathIo fat_io(fat_geom, fat_storage, fat_stash, meter);

    const Leaf leaf = 2;
    for (BlockId id = 0; id < fat_geom.pathSlots(); ++id) {
        if (id >= fat_geom.numBlocks())
            break;
        stashio::put(fat_stash, id, leaf, payloadFor(id));
    }
    const std::uint64_t staged = fat_stash.size();
    const std::uint64_t written = fat_io.writePaths(&leaf, 1);
    EXPECT_EQ(written, std::min<std::uint64_t>(staged,
                                               fat_geom.pathSlots()));
    EXPECT_GT(fat_geom.pathSlots(), geom.pathSlots());
}

} // namespace
} // namespace laoram::oram
