/**
 * @file
 * Regression tests for the union-batched path I/O — the machinery
 * that makes multi-path superblock accesses correct. The scenario
 * that motivated it: two fetched paths share prefix nodes, and a
 * naive sequential write-back of path 2 then path 1 overwrites the
 * shared nodes populated by path 2's write, losing blocks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "../common/slot_io.hh"
#include "../common/stash_io.hh"
#include "oram/evictor.hh"
#include "util/rng.hh"

namespace laoram::oram {
namespace {

struct BatchedFixture : public ::testing::Test
{
    BatchedFixture()
        : geom(64, 8, BucketProfile::uniform(2)), // tight buckets
          storage(geom, 8, false),
          rng(13),
          posmap(64, geom.numLeaves(), rng),
          io(geom, storage, stash, meter)
    {
    }

    /** Union read of @p leaves; @return real blocks absorbed. */
    std::uint64_t
    readAll(const std::vector<Leaf> &leaves)
    {
        return io.readPaths(leaves.data(), leaves.size());
    }

    /** Union write-back of @p leaves; @return real blocks written. */
    std::uint64_t
    writeAll(const std::vector<Leaf> &leaves)
    {
        return io.writePaths(leaves.data(), leaves.size());
    }

    std::vector<std::uint8_t>
    payloadFor(BlockId id)
    {
        return std::vector<std::uint8_t>(8,
                                         static_cast<std::uint8_t>(id));
    }

    /** Stage a block in the stash mapped to @p leaf. */
    void
    stage(BlockId id, Leaf leaf)
    {
        posmap.set(id, leaf);
        stashio::put(stash, id, leaf, payloadFor(id));
    }

    TreeGeometry geom;
    ServerStorage storage;
    Rng rng;
    PositionMap posmap;
    Stash stash;
    mem::TrafficMeter meter{mem::CostModel{}};
    PathIo io;
};

TEST_F(BatchedFixture, UnionReadVisitsSharedNodesOnce)
{
    std::uint64_t slot_reads = 0;
    storage.setAccessSink([&](std::uint64_t, bool write) {
        if (!write)
            ++slot_reads;
    });
    // Sibling leaves share all levels but the last.
    const std::vector<Leaf> leaves{0, 1};
    readAll(leaves);
    const std::uint64_t z = 2;
    // Union: (L+1) + 1 nodes (only the leaf differs).
    const std::uint64_t expect =
        (geom.numLevels() + 1) * z;
    EXPECT_EQ(slot_reads, expect);
}

TEST_F(BatchedFixture, UnionReadOfDisjointPathsVisitsBoth)
{
    std::uint64_t slot_reads = 0;
    storage.setAccessSink([&](std::uint64_t, bool write) {
        if (!write)
            ++slot_reads;
    });
    // Leaves in opposite halves share only the root.
    const std::vector<Leaf> leaves{0, geom.numLeaves() - 1};
    readAll(leaves);
    const std::uint64_t z = 2;
    const std::uint64_t expect = (2 * geom.numLevels() - 1) * z;
    EXPECT_EQ(slot_reads, expect);
}

TEST_F(BatchedFixture, OverlappingWriteBackLosesNothing)
{
    // The motivating bug: blocks eligible only at shared prefix nodes
    // of two written paths must survive a batched write-back. Sibling
    // paths 0 and 1 share every node except the leaves; blocks homed
    // in the opposite tree half are eligible ONLY at the shared root.
    const Leaf left = 0;
    const Leaf right = 1;
    const Leaf elsewhere = geom.numLeaves() / 2;
    stage(1, elsewhere);
    stage(2, elsewhere ^ 1);

    writeAll({left, right});

    // Root Z=2: both blocks must be in the tree now (not lost, not
    // duplicated) — audit verifies global consistency.
    EXPECT_EQ(auditTree(geom, storage, stash, posmap), "");
    std::uint64_t in_tree = 0;
    StoredBlock b;
    for (std::uint64_t s = 0; s < geom.bucketSize(0); ++s) {
        slotio::read(storage, geom.nodeSlotBase(0) + s, b);
        in_tree += !b.isDummy();
    }
    EXPECT_EQ(in_tree + stash.size(), 2u);
    EXPECT_EQ(in_tree, 2u) << "root had capacity for both";
}

TEST_F(BatchedFixture, RandomBatchesPreserveEveryBlock)
{
    // Differential test: run random batched read/write rounds and
    // check no block is ever lost or duplicated.
    std::map<BlockId, bool> live;
    for (int round = 0; round < 120; ++round) {
        // Stage up to 4 fresh blocks on random leaves.
        for (int i = 0; i < 4; ++i) {
            const BlockId id = rng.nextBounded(64);
            if (live.count(id))
                continue;
            const Leaf leaf = rng.nextBounded(geom.numLeaves());
            if (stash.contains(id))
                continue;
            // Only stage blocks not currently in the tree.
            bool in_tree = false;
            StoredBlock b;
            for (NodeIndex n = 0; n < geom.numNodes() && !in_tree;
                 ++n) {
                const auto base = geom.nodeSlotBase(n);
                const auto z = geom.bucketSize(geom.nodeLevel(n));
                for (std::uint64_t s = 0; s < z; ++s) {
                    slotio::read(storage, base + s, b);
                    if (!b.isDummy() && b.id == id)
                        in_tree = true;
                }
            }
            if (in_tree)
                continue;
            stage(id, leaf);
            live[id] = true;
        }
        // Random batch of 1-3 paths: read then write.
        std::vector<Leaf> leaves;
        const int k = 1 + static_cast<int>(rng.nextBounded(3));
        for (int i = 0; i < k; ++i)
            leaves.push_back(rng.nextBounded(geom.numLeaves()));
        std::sort(leaves.begin(), leaves.end());
        leaves.erase(std::unique(leaves.begin(), leaves.end()),
                     leaves.end());
        readAll(leaves);
        writeAll(leaves);

        ASSERT_EQ(auditTree(geom, storage, stash, posmap), "")
            << "round " << round;
    }
    // Every staged block is accounted for: in tree or stash.
    std::map<BlockId, int> found;
    StoredBlock b;
    for (NodeIndex n = 0; n < geom.numNodes(); ++n) {
        const auto base = geom.nodeSlotBase(n);
        const auto z = geom.bucketSize(geom.nodeLevel(n));
        for (std::uint64_t s = 0; s < z; ++s) {
            slotio::read(storage, base + s, b);
            if (!b.isDummy())
                ++found[b.id];
        }
    }
    for (const auto &[id, entry] : stash)
        ++found[id];
    for (const auto &[id, alive] : live)
        EXPECT_EQ(found[id], 1) << "block " << id;
}

TEST_F(BatchedFixture, SingleLeafBatchedEqualsPlainWrite)
{
    // A one-leaf union is exactly the plain path write-back: every
    // slot of the path is written once and both blocks fit.
    stage(5, 3);
    stage(9, 3);
    EXPECT_EQ(writeAll({Leaf{3}}), 2u);
    EXPECT_EQ(meter.counters().pathWrites, 1u);
    EXPECT_EQ(meter.counters().blocksWritten, geom.pathSlots());
    EXPECT_TRUE(stash.empty());
    EXPECT_EQ(auditTree(geom, storage, stash, posmap), "");
}

TEST_F(BatchedFixture, PinnedEntriesSurviveBatchedWrite)
{
    stage(7, 4);
    stash.find(7)->pinned = true;
    writeAll({Leaf{4}});
    EXPECT_TRUE(stash.contains(7)) << "pinned block must be retained";
    stash.find(7)->pinned = false;
    writeAll({Leaf{4}});
    EXPECT_FALSE(stash.contains(7));
}

TEST_F(BatchedFixture, PinnedEntriesSurvivePlainWrite)
{
    stage(8, 6);
    stash.find(8)->pinned = true;
    const Leaf leaf = 6;
    io.writePaths(&leaf, 1);
    EXPECT_TRUE(stash.contains(8));
}

TEST_F(BatchedFixture, WriteBackPlacesAtDeepestUnionNode)
{
    // A block whose leaf IS one of the written paths must land in
    // that leaf's bucket, not at the shared root.
    const Leaf target = 5;
    stage(11, target);
    writeAll({target, target ^ 1});

    const NodeIndex leaf_node =
        geom.pathNode(target, geom.leafLevel());
    StoredBlock b;
    bool at_leaf = false;
    const auto base = geom.nodeSlotBase(leaf_node);
    for (std::uint64_t s = 0;
         s < geom.bucketSize(geom.leafLevel()); ++s) {
        slotio::read(storage, base + s, b);
        at_leaf |= (!b.isDummy() && b.id == 11);
    }
    EXPECT_TRUE(at_leaf);
}

TEST(SlotNode, InvertsNodeSlotBase)
{
    TreeGeometry geom(256, 16, BucketProfile::linear(3, 7));
    for (NodeIndex n = 0; n < geom.numNodes(); ++n) {
        const auto base = geom.nodeSlotBase(n);
        const auto z = geom.bucketSize(geom.nodeLevel(n));
        for (std::uint64_t s = base; s < base + z; ++s)
            ASSERT_EQ(geom.slotNode(s), n) << "slot " << s;
    }
}

/**
 * Naive greedy reference for a union write-back: visit union nodes
 * deepest-first and fill each with any still-unplaced, unpinned block
 * whose own path passes through it. Blocks eligible at a node are
 * eligible at every union node above it, so the number placed does
 * not depend on which eligible blocks a node takes.
 *
 * @return blocks left in the stash
 */
std::uint64_t
naiveLeftInStash(const TreeGeometry &geom,
                 const std::vector<std::pair<Leaf, bool>> &blocks,
                 const std::vector<Leaf> &leaves)
{
    std::set<NodeIndex> nodes;
    for (Leaf leaf : leaves)
        for (unsigned level = 0; level < geom.numLevels(); ++level)
            nodes.insert(geom.pathNode(leaf, level));
    std::vector<bool> placed(blocks.size(), false);
    std::uint64_t left = blocks.size();
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        const unsigned level = geom.nodeLevel(*it);
        std::uint64_t room = geom.bucketSize(level);
        for (std::size_t b = 0; b < blocks.size() && room > 0; ++b) {
            const auto &[leaf, pinned] = blocks[b];
            if (placed[b] || pinned
                || geom.pathNode(leaf, level) != *it)
                continue;
            placed[b] = true;
            --room;
            --left;
        }
    }
    return left;
}

void
checkUnionWriteBackAgainstNaive(const BucketProfile &profile,
                                std::uint64_t seed)
{
    Rng rng(seed);
    for (int trial = 0; trial < 60; ++trial) {
        TreeGeometry geom(64, 8, profile);
        ServerStorage storage(geom, 8, false);
        PositionMap posmap(64, geom.numLeaves(), rng);
        Stash stash;
        mem::TrafficMeter meter{mem::CostModel{}};
        PathIo io(geom, storage, stash, meter);

        // Random stash contents: up to 48 distinct blocks, ~1 in 6
        // pinned, each on a random leaf.
        std::vector<std::pair<Leaf, bool>> blocks;
        std::map<BlockId, Leaf> pinned;
        const std::uint64_t count = 1 + rng.nextBounded(48);
        for (BlockId id = 0; id < count; ++id) {
            const Leaf leaf = rng.nextBounded(geom.numLeaves());
            const bool pin = rng.nextBounded(6) == 0;
            posmap.set(id, leaf);
            stashio::put(stash, id, leaf, std::vector<std::uint8_t>(8, 1))
                .pinned = pin;
            blocks.emplace_back(leaf, pin);
            if (pin)
                pinned[id] = leaf;
        }
        // Random leaf set of 1-6 paths, duplicates allowed.
        std::vector<Leaf> leaves;
        const std::uint64_t k = 1 + rng.nextBounded(6);
        for (std::uint64_t i = 0; i < k; ++i)
            leaves.push_back(rng.nextBounded(geom.numLeaves()));

        io.writePaths(leaves.data(), leaves.size());

        ASSERT_EQ(stash.size(), naiveLeftInStash(geom, blocks, leaves))
            << "trial " << trial;
        ASSERT_EQ(auditTree(geom, storage, stash, posmap), "")
            << "trial " << trial;
        for (const auto &[id, leaf] : pinned) {
            const StashEntry *e = stash.find(id);
            ASSERT_NE(e, nullptr) << "pinned block " << id << " evicted";
            EXPECT_TRUE(e->pinned);
            EXPECT_EQ(e->leaf, leaf);
        }
    }
}

TEST(UnionWriteBack, MatchesNaiveGreedyOnUniformTree)
{
    checkUnionWriteBackAgainstNaive(BucketProfile::uniform(2), 101);
}

TEST(UnionWriteBack, MatchesNaiveGreedyOnFatTree)
{
    checkUnionWriteBackAgainstNaive(BucketProfile::linear(1, 4), 202);
}

} // namespace
} // namespace laoram::oram
