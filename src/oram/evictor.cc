#include "oram/evictor.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace laoram::oram {

PathIo::PathIo(const TreeGeometry &geom, ServerStorage &storage,
               Stash &stash, mem::TrafficMeter &meter,
               std::uint64_t reserve)
    : geom(geom), storage(storage), stash(stash), meter(meter),
      reserve(reserve)
{
    for (unsigned level = 0; level < geom.numLevels(); ++level)
        LAORAM_ASSERT(reserve < geom.bucketSize(level), "reserve ",
                      reserve, " leaves no real slot at level ", level);
}

void
PathIo::record(std::size_t, BlockId id, Leaf leaf,
               const std::uint8_t *payload)
{
    if (id == kInvalidBlock)
        return; // dummies cost no copy
    // A block must never be duplicated between tree and stash.
    const std::uint64_t before = stash.size();
    stash.put(id, leaf, payload, storage.payloadBytes());
    LAORAM_ASSERT(stash.size() == before + 1, "block ", id,
                  " found in tree while stashed");
    ++absorbed;
}

std::uint64_t
PathIo::readPaths(const Leaf *leaves, std::size_t k)
{
    buildUnion(leaves, k);
    const std::uint64_t blocks = fetchUnion();
    const std::uint64_t slots = slotScratch.size();
    meter.recordPathReads(k, slots * geom.blockBytes(), slots);
    return blocks;
}

std::uint64_t
PathIo::writePaths(const Leaf *leaves, std::size_t k)
{
    const std::uint64_t blocks = writeBack(leaves, k);
    const std::uint64_t slots = writeScratch.size();
    meter.recordPathWrites(k, slots * geom.blockBytes(), slots);
    return blocks;
}

std::uint64_t
PathIo::writeBack(const Leaf *leaves, std::size_t k)
{
    buildUnion(leaves, k);
    return evictUnion();
}

void
PathIo::dummyAccess(Leaf leaf)
{
    buildUnion(&leaf, 1);
    fetchUnion();
    evictUnion();
    const std::uint64_t slots = slotScratch.size();
    const std::uint64_t bytes = slots * geom.blockBytes();
    meter.recordDummyAccess(bytes, slots, bytes, slots);
}

void
PathIo::buildUnion(const Leaf *leaves, std::size_t k)
{
    LAORAM_ASSERT(k > 0, "path access over an empty path set");
    sortedLeaves.assign(leaves, leaves + k);
    std::sort(sortedLeaves.begin(), sortedLeaves.end());
    sortedLeaves.erase(
        std::unique(sortedLeaves.begin(), sortedLeaves.end()),
        sortedLeaves.end());
    k = sortedLeaves.size();

    // Heap indices grow with level, and within a level pathNode is
    // monotone in the leaf — so walking levels deepest-first and the
    // sorted leaves backwards emits the union in descending index
    // order (exactly the greedy write-back order), duplicates
    // adjacent. No sort of the k * levels path nodes is needed.
    const unsigned levels = geom.numLevels();
    unionNodes.clear();
    leafNodePos.resize(k * levels);
    for (unsigned level = levels; level-- > 0;) {
        for (std::size_t j = k; j-- > 0;) {
            const NodeIndex node = geom.pathNode(sortedLeaves[j], level);
            if (unionNodes.empty() || unionNodes.back() != node)
                unionNodes.push_back(node);
            leafNodePos[j * levels + level] =
                static_cast<std::uint32_t>(unionNodes.size() - 1);
        }
    }
    parentPos.resize(unionNodes.size());
    for (std::size_t j = 0; j < k; ++j) {
        for (unsigned level = 1; level < levels; ++level)
            parentPos[leafNodePos[j * levels + level]] =
                leafNodePos[j * levels + level - 1];
    }
}

std::uint64_t
PathIo::fetchSlots(const std::uint64_t *slots, std::size_t n)
{
    absorbed = 0;
    storage.readSlots(slots, n, *this);
    return absorbed;
}

std::uint64_t
PathIo::fetchUnion()
{
    slotScratch.clear();
    for (NodeIndex node : unionNodes) {
        const std::uint64_t base = geom.nodeSlotBase(node);
        const std::uint64_t z = geom.bucketSize(geom.nodeLevel(node));
        for (std::uint64_t s = 0; s < z; ++s)
            slotScratch.push_back(base + s);
    }
    return fetchSlots(slotScratch.data(), slotScratch.size());
}

std::uint64_t
PathIo::evictUnion()
{
    const unsigned levels = geom.numLevels();
    if (pending.size() < unionNodes.size())
        pending.resize(unionNodes.size());

    // Seed every stash block at the deepest union node it may occupy:
    // the node realising max over leaves of commonLevel(block, leaf).
    // The maximiser shares the longest bit-prefix with the block's
    // leaf, so for a sorted leaf set it is always a lower_bound
    // neighbour — O(log k) per block instead of O(k). Pinned entries
    // are retained client-side.
    for (std::size_t pos = 0; pos < stash.size(); ++pos) {
        const StashEntry &entry = stash.at(pos).entry;
        if (entry.pinned)
            continue;
        const std::size_t j = static_cast<std::size_t>(
            std::lower_bound(sortedLeaves.begin(), sortedLeaves.end(),
                             entry.leaf)
            - sortedLeaves.begin());
        std::size_t best = j < sortedLeaves.size() ? j : j - 1;
        unsigned bestLevel =
            geom.commonLevel(entry.leaf, sortedLeaves[best]);
        if (best == j && j > 0) {
            const unsigned cl =
                geom.commonLevel(entry.leaf, sortedLeaves[j - 1]);
            if (cl > bestLevel) {
                best = j - 1;
                bestLevel = cl;
            }
        }
        pending[leafNodePos[best * levels + bestLevel]].push_back(
            static_cast<std::uint32_t>(pos));
    }

    // Deepest-first fill as one vectored storage op: real blocks
    // reference their stash payloads in place, untaken and reserved
    // slots become dummies. The stash entries are erased only after
    // the write, so every payload pointer stays valid for it.
    writeScratch.clear();
    evicted.clear();
    for (std::size_t u = 0; u < unionNodes.size(); ++u) {
        auto &candidates = pending[u];
        const unsigned level = geom.nodeLevel(unionNodes[u]);
        const std::uint64_t base = geom.nodeSlotBase(unionNodes[u]);
        const std::uint64_t z = geom.bucketSize(level);
        const std::uint64_t cap = z - reserve;
        std::uint64_t filled = 0;
        for (; filled < cap && !candidates.empty(); ++filled) {
            const std::uint32_t pos = candidates.back();
            candidates.pop_back();
            const StashSlot &slot = stash.at(pos);
            writeScratch.push_back({base + filled, slot.id,
                                    slot.entry.leaf,
                                    slot.entry.payload.data(),
                                    slot.entry.payload.size()});
            evicted.push_back(pos);
        }
        for (std::uint64_t s = filled; s < z; ++s)
            writeScratch.push_back({base + s, kInvalidBlock, 0,
                                    nullptr, 0});
        // Leftovers spill to the parent; at the root they simply stay
        // in the stash.
        if (!candidates.empty() && level > 0) {
            auto &parent = pending[parentPos[u]];
            parent.insert(parent.end(), candidates.begin(),
                          candidates.end());
        }
        candidates.clear();
    }
    storage.writeSlots(writeScratch.data(), writeScratch.size());
    stash.eraseAt(evicted.data(), evicted.size());
    return evicted.size();
}

std::string
auditTree(const TreeGeometry &geom, const ServerStorage &storage,
          const Stash &stash, const PositionMap &posmap)
{
    std::ostringstream err;
    std::unordered_set<BlockId> seen;
    std::vector<std::uint64_t> slots;
    std::vector<StoredBlock> bucket;

    for (NodeIndex node = 0; node < geom.numNodes(); ++node) {
        const unsigned level = geom.nodeLevel(node);
        const std::uint64_t base = geom.nodeSlotBase(node);
        slots.resize(geom.bucketSize(level));
        for (std::uint64_t s = 0; s < slots.size(); ++s)
            slots[s] = base + s;
        storage.readSlots(slots.data(), slots.size(), bucket);
        for (const StoredBlock &b : bucket) {
            if (b.isDummy())
                continue;
            if (!seen.insert(b.id).second) {
                err << "block " << b.id << " duplicated in tree";
                return err.str();
            }
            if (stash.contains(b.id)) {
                err << "block " << b.id << " in both tree and stash";
                return err.str();
            }
            const Leaf mapped = posmap.get(b.id);
            if (b.leaf != mapped) {
                err << "block " << b.id << " stored leaf " << b.leaf
                    << " != posmap leaf " << mapped;
                return err.str();
            }
            if (geom.pathNode(mapped, level) != node) {
                err << "block " << b.id << " at node " << node
                    << " not on path of leaf " << mapped;
                return err.str();
            }
        }
    }

    for (const auto &[id, entry] : stash) {
        if (entry.leaf != posmap.get(id)) {
            err << "stashed block " << id << " leaf " << entry.leaf
                << " != posmap leaf " << posmap.get(id);
            return err.str();
        }
    }
    return {};
}

} // namespace laoram::oram
