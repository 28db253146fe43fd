#include "oram/pro_oram.hh"

#include <algorithm>
#include <vector>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace laoram::oram {

SuperblockOramBase::SuperblockOramBase(const EngineConfig &cfg,
                                       std::uint64_t groupSize)
    : TreeOramBase(cfg), groupSize(groupSize)
{
    LAORAM_ASSERT(groupSize >= 1, "superblock size must be >= 1");
}

bool
SuperblockOramBase::servePrefetchHit(BlockId id, AccessOp op,
                                     const std::uint8_t *in,
                                     std::size_t len,
                                     std::vector<std::uint8_t> *out)
{
    StashEntry *entry = stash_.find(id);
    if (!entry)
        return false;
    mtr.recordStashHit();
    entry->pinned = false; // pending access served
    applyOp(*entry, op, in, len, out);
    mtr.observeStashSize(stash_.size());
    return true;
}

void
SuperblockOramBase::moveGroup(const Leaf *leaves, std::size_t k,
                              BlockId first, BlockId end, BlockId id,
                              AccessOp op, const std::uint8_t *in,
                              std::size_t len,
                              std::vector<std::uint8_t> *out)
{
    const Leaf next = randomLeaf();
    memberIds.clear();
    for (BlockId m = first; m < end; ++m) {
        posmap_.set(m, next);
        memberIds.push_back(m);
    }
    memberLeaves.assign(memberIds.size(), next);
    pathIo_.access(leaves, k, memberIds.data(), memberLeaves.data(),
                   memberIds.size(), [&](std::size_t i, StashEntry &entry) {
                       if (memberIds[i] == id)
                           applyOp(entry, op, in, len, out);
                       else
                           entry.pinned = true;
                   });
}

StaticSuperblockOram::StaticSuperblockOram(
    const StaticSuperblockConfig &cfg)
    : SuperblockOramBase(cfg.base, cfg.superblockSize)
{
    // Static superblocks require group-consistent initial positions:
    // every member of an aligned group starts on the group's leaf.
    for (BlockId base = 0; base < this->cfg.numBlocks;
         base += groupSize) {
        const Leaf shared = posmap_.get(base);
        for (BlockId m = base + 1; m < groupEnd(base); ++m)
            posmap_.set(m, shared);
    }
    restoreAtConstructionIfConfigured();
}

std::string
StaticSuperblockOram::name() const
{
    return "PrORAM-static/S" + std::to_string(groupSize);
}

void
StaticSuperblockOram::access(BlockId id, AccessOp op,
                             const std::uint8_t *in, std::size_t len,
                             std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    // With S == 1 there is no prefetching and the engine degenerates
    // to exact PathORAM behaviour, stash hits included.
    if (groupSize > 1 && servePrefetchHit(id, op, in, len, out))
        return;

    const Leaf current = posmap_.get(id); // shared by the whole group
    if (stash_.contains(id))
        mtr.recordStashHit();
    moveGroup(&current, 1, groupBase(id), groupEnd(id), id, op, in, len,
              out);
    finishAccess();
}

ProOram::ProOram(const ProOramConfig &cfg)
    : SuperblockOramBase(cfg.base, cfg.groupSize), pcfg(cfg),
      groups(divCeil(cfg.base.numBlocks, cfg.groupSize))
{
    LAORAM_ASSERT(pcfg.splitThreshold < pcfg.mergeThreshold,
                  "split threshold must sit below merge threshold");
    restoreAtConstructionIfConfigured();
}

std::string
ProOram::name() const
{
    return "PrORAM/S" + std::to_string(groupSize);
}

void
ProOram::splitGroup(BlockId id)
{
    // Splitting is free at split time: members simply stop moving
    // together; each regains an independent leaf on its next access.
    // Retention pins are released — the prediction was withdrawn.
    auto &g = groups[id / groupSize];
    g.merged = false;
    --nMerged;
    ++nSplitEvents;
    for (BlockId m = groupBase(id); m < groupEnd(id); ++m) {
        if (StashEntry *entry = stash_.find(m))
            entry->pinned = false;
    }
}

void
ProOram::access(BlockId id, AccessOp op, const std::uint8_t *in,
                std::size_t len, std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();
    ++accessIndex;

    auto &g = groups[id / groupSize];

    // Spatial-locality counter (PrORAM §4): recent activity on the
    // group raises it, silence decays it.
    if (g.everAccessed
        && accessIndex - g.lastAccess <= pcfg.window) {
        g.counter = std::min(g.counter + 1, pcfg.counterCap);
    } else {
        g.counter = std::max(g.counter - 1, 0);
    }
    g.lastAccess = accessIndex;
    g.everAccessed = true;

    if (g.merged && g.counter <= pcfg.splitThreshold)
        splitGroup(id);

    // Superblock prefetch hit on a fused group: served client-side,
    // exactly like a LAORAM bin member.
    if (g.merged && servePrefetchHit(id, op, in, len, out))
        return;

    if (stash_.contains(id))
        mtr.recordStashHit();
    if (!g.merged && g.counter >= pcfg.mergeThreshold) {
        // Fusing the group co-locates members that currently live on
        // unrelated paths: one step over the union of their paths
        // moves them all to one fresh leaf.
        std::vector<Leaf> leaves;
        for (BlockId m = groupBase(id); m < groupEnd(id); ++m)
            leaves.push_back(posmap_.get(m));
        std::sort(leaves.begin(), leaves.end());
        leaves.erase(std::unique(leaves.begin(), leaves.end()),
                     leaves.end());
        moveGroup(leaves.data(), leaves.size(), groupBase(id),
                  groupEnd(id), id, op, in, len, out);
        g.merged = true;
        ++nMerged;
        ++nMergeEvents;
    } else {
        // A fused group shares `current` and moves together; an
        // unfused block is a group of one.
        const Leaf current = posmap_.get(id);
        moveGroup(&current, 1, g.merged ? groupBase(id) : id,
                  g.merged ? groupEnd(id) : id + 1, id, op, in, len,
                  out);
    }
    finishAccess();
}

void
ProOram::saveClientState(serde::Serializer &s) const
{
    TreeOramBase::saveClientState(s);
    s.u64(groups.size());
    for (const GroupState &g : groups) {
        s.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(
            g.counter)));
        s.u8(g.merged ? 1 : 0);
        s.u64(g.lastAccess);
        s.u8(g.everAccessed ? 1 : 0);
    }
    s.u64(accessIndex);
    s.u64(nMerged);
    s.u64(nMergeEvents);
    s.u64(nSplitEvents);
}

void
ProOram::restoreClientState(serde::Deserializer &d)
{
    TreeOramBase::restoreClientState(d);
    const std::uint64_t count = d.u64();
    if (count != groups.size())
        throw serde::SnapshotError(
            "PrORAM snapshot covers " + std::to_string(count)
            + " groups but this engine has "
            + std::to_string(groups.size()));
    for (GroupState &g : groups) {
        g.counter = static_cast<int>(
            static_cast<std::int64_t>(d.u64()));
        g.merged = d.u8() != 0;
        g.lastAccess = d.u64();
        g.everAccessed = d.u8() != 0;
    }
    accessIndex = d.u64();
    nMerged = d.u64();
    nMergeEvents = d.u64();
    nSplitEvents = d.u64();
}

} // namespace laoram::oram
