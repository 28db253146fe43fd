#include "oram/recursive_posmap.hh"

#include <cstring>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace laoram::oram {

namespace {

/** Stash high-water mark for the small map ORAMs. */
constexpr std::uint64_t kLevelHighWater = 100;
constexpr std::uint64_t kLevelLowWater = 20;

} // namespace

RecursivePositionMap::Level::Level(std::uint64_t blocks,
                                   std::uint64_t payloadBytes,
                                   const RecursiveConfig &cfg,
                                   std::uint64_t salt,
                                   mem::TrafficMeter &meter)
    : blocks(blocks),
      geom(blocks, payloadBytes, BucketProfile::uniform(4)),
      storage(geom, payloadBytes, cfg.encrypt, cfg.seed ^ salt),
      stash(),
      io(geom, storage, stash, meter)
{
}

RecursivePositionMap::RecursivePositionMap(std::uint64_t numBlocks,
                                           std::uint64_t numLeaves,
                                           const RecursiveConfig &cfg,
                                           mem::TrafficMeter &meter)
    : cfg(cfg), dataLeaves(numLeaves), meter(meter),
      rng(cfg.seed ^ 0x9eca)
{
    LAORAM_ASSERT(cfg.packing >= 2, "packing must be >= 2");
    LAORAM_ASSERT(numBlocks >= 1 && numLeaves >= 1, "degenerate map");

    // Degenerate case: the whole map fits client memory — identical
    // to the paper's flat-map design.
    if (numBlocks <= cfg.directThreshold) {
        clientMap.resize(numBlocks);
        for (auto &leaf : clientMap)
            leaf = rng.nextBounded(dataLeaves);
        return;
    }

    // Build the ORAM chain until a level's own map fits the client.
    const std::uint64_t payload_bytes = cfg.packing * 4;
    std::uint64_t n = divCeil(numBlocks, cfg.packing);
    std::uint64_t salt = 0x5151;
    while (true) {
        levels.push_back(
            std::make_unique<Level>(n, payload_bytes, cfg, salt++,
                                    meter));
        if (n <= cfg.directThreshold)
            break;
        n = divCeil(n, cfg.packing);
    }

    // Draw every level's block positions up front, then materialise
    // payloads + tree placement bottom-up so the chain starts fully
    // consistent (all positions uniform).
    std::vector<std::vector<Leaf>> pos(levels.size());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        pos[i].resize(levels[i]->blocks);
        for (auto &leaf : pos[i])
            leaf = rng.nextBounded(levels[i]->geom.numLeaves());
    }
    clientMap = pos.back();

    // Each level is placed with one vectored write; block j's payload
    // lives at payloads[j * payload_bytes] until it completes.
    std::vector<std::uint8_t> payloads;
    std::vector<ServerStorage::SlotWriteOp> ops;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        Level &level = *levels[i];
        payloads.assign(level.blocks * payload_bytes, 0);
        ops.clear();
        // Per-node occupancy so the bulk load never overwrites.
        std::vector<std::uint8_t> filled(level.geom.numNodes(), 0);
        for (BlockId j = 0; j < level.blocks; ++j) {
            // Payload: packed child positions (level i-1 blocks, or
            // the main data map when i == 0).
            const std::uint8_t *payload =
                payloads.data() + j * payload_bytes;
            for (std::uint64_t t = 0; t < cfg.packing; ++t) {
                const std::uint64_t child = j * cfg.packing + t;
                Leaf value = 0;
                if (i == 0) {
                    value = child < numBlocks
                                ? rng.nextBounded(dataLeaves)
                                : 0;
                } else {
                    value = child < levels[i - 1]->blocks
                                ? pos[i - 1][child]
                                : 0;
                }
                storePos(payloads, j * cfg.packing + t, value);
            }
            // Place block j on its path, deepest free slot first.
            const Leaf home = pos[i][j];
            bool placed = false;
            for (unsigned lvl = level.geom.numLevels(); lvl-- > 0;) {
                const NodeIndex node = level.geom.pathNode(home, lvl);
                const std::uint64_t z = level.geom.bucketSize(lvl);
                if (filled[node] < z) {
                    ops.push_back({level.geom.nodeSlotBase(node)
                                       + filled[node],
                                   j, home, payload, payload_bytes});
                    ++filled[node];
                    placed = true;
                    break;
                }
            }
            if (!placed)
                level.stash.put(j, home, payload, payload_bytes);
        }
        level.storage.writeSlots(ops.data(), ops.size());
    }
}

Leaf
RecursivePositionMap::loadPos(const std::vector<std::uint8_t> &payload,
                              std::uint64_t offset)
{
    std::uint32_t v;
    std::memcpy(&v, payload.data() + offset * 4, 4);
    return v;
}

void
RecursivePositionMap::storePos(std::vector<std::uint8_t> &payload,
                               std::uint64_t offset, Leaf leaf)
{
    LAORAM_ASSERT(leaf <= 0xFFFFFFFFull,
                  "leaf exceeds packed 32-bit representation");
    const auto v = static_cast<std::uint32_t>(leaf);
    std::memcpy(payload.data() + offset * 4, &v, 4);
}

Leaf
RecursivePositionMap::getAndSet(BlockId id, Leaf next)
{
    // Flat (non-recursive) fast path.
    if (levels.empty()) {
        LAORAM_ASSERT(id < clientMap.size(), "block out of range");
        const Leaf old = clientMap[id];
        clientMap[id] = next;
        return old;
    }

    // Per-level block indices and intra-block offsets.
    const std::size_t k = levels.size();
    std::vector<BlockId> block(k);
    block[0] = id / cfg.packing;
    for (std::size_t i = 1; i < k; ++i)
        block[i] = block[i - 1] / cfg.packing;

    // Innermost position comes from the client array.
    LAORAM_ASSERT(block[k - 1] < clientMap.size(),
                  "client map index out of range");
    Leaf pos = clientMap[block[k - 1]];
    Leaf npos =
        rng.nextBounded(levels[k - 1]->geom.numLeaves());
    clientMap[block[k - 1]] = npos;

    for (std::size_t i = k; i-- > 0;) {
        Level &level = *levels[i];
        const std::uint64_t off = (i == 0)
                                      ? id % cfg.packing
                                      : block[i - 1] % cfg.packing;
        // Swap the packed word inside the step, before write-back may
        // evict the map block into the tree. A block missing after
        // bulk init would come back zeroed (positions 0 — still valid
        // leaves).
        const std::uint64_t childLeaves =
            (i == 0) ? dataLeaves : levels[i - 1]->geom.numLeaves();
        Leaf child = 0;
        Leaf child_new = 0;
        level.io.access(&pos, 1, &block[i], &npos, 1,
                        [&](std::size_t, StashEntry &entry) {
                            child = loadPos(entry.payload, off);
                            child_new = (i == 0)
                                            ? next
                                            : rng.nextBounded(childLeaves);
                            storePos(entry.payload, off, child_new);
                        });

        // Keep the small map stashes bounded.
        level.io.drainStash(kLevelHighWater, kLevelLowWater, rng);

        pos = child;
        npos = child_new;
    }
    return pos; // level 0's word: the data block's old leaf
}

const std::vector<std::uint8_t> *
RecursivePositionMap::peekLevel(const Level &level, BlockId block,
                                Leaf at,
                                std::vector<std::uint8_t> &scratch)
    const
{
    if (const StashEntry *entry = level.stash.find(block))
        return &entry->payload;
    std::vector<std::uint64_t> slots;
    for (unsigned lvl = 0; lvl < level.geom.numLevels(); ++lvl) {
        const NodeIndex node = level.geom.pathNode(at, lvl);
        const std::uint64_t base = level.geom.nodeSlotBase(node);
        for (std::uint64_t s = 0; s < level.geom.bucketSize(lvl); ++s)
            slots.push_back(base + s);
    }
    std::vector<StoredBlock> path;
    level.storage.readSlots(slots.data(), slots.size(), path);
    for (StoredBlock &b : path) {
        if (b.id == block) {
            scratch = std::move(b.payload);
            return &scratch;
        }
    }
    return nullptr;
}

Leaf
RecursivePositionMap::peek(BlockId id) const
{
    if (levels.empty())
        return clientMap.at(id);

    const std::size_t k = levels.size();
    std::vector<BlockId> block(k);
    block[0] = id / cfg.packing;
    for (std::size_t i = 1; i < k; ++i)
        block[i] = block[i - 1] / cfg.packing;

    Leaf pos = clientMap.at(block[k - 1]);
    std::vector<std::uint8_t> scratch;
    for (std::size_t i = k; i-- > 0;) {
        const std::vector<std::uint8_t> *payload =
            peekLevel(*levels[i], block[i], pos, scratch);
        LAORAM_ASSERT(payload, "map block ", block[i],
                      " missing at level ", i);
        const std::uint64_t off = (i == 0)
                                      ? id % cfg.packing
                                      : block[i - 1] % cfg.packing;
        pos = loadPos(*payload, off);
    }
    return pos;
}

std::uint64_t
RecursivePositionMap::clientBytes() const
{
    std::uint64_t bytes = clientMap.size() * sizeof(Leaf);
    for (const auto &level : levels)
        bytes += level->stash.residentBytes(cfg.packing * 4);
    return bytes;
}

std::uint64_t
RecursivePositionMap::serverBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &level : levels)
        bytes += level->geom.serverBytes();
    return bytes;
}

namespace {

/**
 * Streams decoded tree slots into a snapshot: dummies travel as the
 * invalid id alone, real records carry leaf + packed-position payload.
 */
class SlotSaver final : public ServerStorage::RecordSink
{
  public:
    SlotSaver(serde::Serializer &s, std::uint64_t payloadBytes)
        : s(s), payloadBytes(payloadBytes)
    {
    }

    void
    record(std::size_t, BlockId id, Leaf leaf,
           const std::uint8_t *payload) override
    {
        s.u64(id);
        if (id == kInvalidBlock)
            return;
        s.u64(leaf);
        s.u64(payloadBytes); // a blob: length, then bytes
        s.bytes(payload, payloadBytes);
    }

  private:
    serde::Serializer &s;
    std::uint64_t payloadBytes;
};

} // namespace

void
RecursivePositionMap::save(serde::Serializer &s) const
{
    rng.save(s);
    s.u64(clientMap.size());
    for (Leaf leaf : clientMap)
        s.u64(leaf);

    s.u64(levels.size());
    for (const auto &level : levels) {
        s.u64(level->blocks);
        level->stash.save(s);
        // Every tree slot, read as one vectored op.
        std::vector<std::uint64_t> slots(level->storage.slots());
        for (std::uint64_t slot = 0; slot < slots.size(); ++slot)
            slots[slot] = slot;
        s.u64(slots.size());
        SlotSaver saver(s, level->storage.payloadBytes());
        level->storage.readSlots(slots.data(), slots.size(), saver);
    }
}

void
RecursivePositionMap::restore(serde::Deserializer &d)
{
    rng.restore(d);
    const std::uint64_t mapSize = d.u64();
    if (mapSize != clientMap.size())
        throw serde::SnapshotError(
            "recursive-map snapshot has a client map of "
            + std::to_string(mapSize) + " entries but this chain has "
            + std::to_string(clientMap.size()));
    for (Leaf &leaf : clientMap)
        leaf = d.u64();

    const std::uint64_t levelCount = d.u64();
    if (levelCount != levels.size())
        throw serde::SnapshotError(
            "recursive-map snapshot has " + std::to_string(levelCount)
            + " ORAM levels but this chain has "
            + std::to_string(levels.size()));
    for (auto &level : levels) {
        const std::uint64_t blocks = d.u64();
        if (blocks != level->blocks)
            throw serde::SnapshotError(
                "recursive-map level covers "
                + std::to_string(blocks)
                + " blocks in the snapshot but "
                + std::to_string(level->blocks) + " here");
        level->stash.restore(d);
        const std::uint64_t slots = d.u64();
        if (slots != level->storage.slots())
            throw serde::SnapshotError(
                "recursive-map level has " + std::to_string(slots)
                + " tree slots in the snapshot but "
                + std::to_string(level->storage.slots()) + " here");
        // Decode every slot, then rewrite the tree as one vectored
        // op (records holds the payloads the ops point into).
        std::vector<StoredBlock> records(slots);
        std::vector<ServerStorage::SlotWriteOp> ops(slots);
        for (std::uint64_t slot = 0; slot < slots; ++slot) {
            StoredBlock &b = records[slot];
            b.id = d.u64();
            if (!b.isDummy()) {
                b.leaf = d.u64();
                b.payload = d.blob();
            }
            ops[slot] = {slot, b.id, b.leaf, b.payload.data(),
                         b.payload.size()};
        }
        level->storage.writeSlots(ops.data(), ops.size());
    }
}

RecursivePathOram::RecursivePathOram(const EngineConfig &cfg,
                                     const RecursiveConfig &rcfg)
    : OramEngine(cfg),
      storage_(geom, cfg.payloadBytes, cfg.encrypt, cfg.seed ^ 0x2EC,
               cfg.storage),
      stash_(),
      pathIo_(geom, storage_, stash_, mtr),
      rpm(cfg.numBlocks, geom.numLeaves(), rcfg, mtr)
{
    requireFreshStorage(storage_, cfg, "recursive PathORAM");
}

void
RecursivePathOram::access(BlockId id, AccessOp op,
                          const std::uint8_t *in, std::size_t len,
                          std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    const Leaf next = rng.nextBounded(geom.numLeaves());
    // One oblivious access per recursion level, then the data path.
    const Leaf current = rpm.getAndSet(id, next);

    if (stash_.contains(id))
        mtr.recordStashHit();
    pathIo_.access(&current, 1, &id, &next, 1,
                   [&](std::size_t, StashEntry &entry) {
                       applyOp(entry, op, in, len, out);
                   });
    pathIo_.drainStash(cfg.stashHighWater, cfg.stashLowWater, rng);
    mtr.observeStashSize(stash_.size());
}

std::string
RecursivePathOram::auditRecursive(std::uint64_t sampleStride) const
{
    std::vector<std::uint64_t> slots;
    std::vector<StoredBlock> bucket;
    for (NodeIndex node = 0; node < geom.numNodes(); ++node) {
        const unsigned level = geom.nodeLevel(node);
        const std::uint64_t base = geom.nodeSlotBase(node);
        slots.resize(geom.bucketSize(level));
        for (std::uint64_t s = 0; s < slots.size(); ++s)
            slots[s] = base + s;
        storage_.readSlots(slots.data(), slots.size(), bucket);
        for (const StoredBlock &b : bucket) {
            if (b.isDummy() || (b.id % sampleStride) != 0)
                continue;
            const Leaf mapped = rpm.peek(b.id);
            if (b.leaf != mapped)
                return "block " + std::to_string(b.id)
                    + " stored leaf disagrees with recursive map";
            if (geom.pathNode(mapped, level) != node)
                return "block " + std::to_string(b.id)
                    + " off its mapped path";
        }
    }
    for (const auto &[id, entry] : stash_) {
        if (entry.leaf != rpm.peek(id))
            return "stashed block " + std::to_string(id)
                + " disagrees with recursive map";
    }
    return {};
}

} // namespace laoram::oram
