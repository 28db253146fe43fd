#include "oram/stash.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace laoram::oram {

namespace {

/** Smallest index: 16 cells. */
constexpr unsigned kMinIndexBits = 4;

} // namespace

std::uint32_t
Stash::positionOf(BlockId id) const
{
    if (index.empty())
        return kNone;
    const std::size_t mask = index.size() - 1;
    for (std::size_t c = homeCell(id, indexBits);; c = (c + 1) & mask) {
        const Cell &cell = index[c];
        if (cell.pos == kNone || cell.id == id)
            return cell.pos;
    }
}

std::size_t
Stash::cellOf(BlockId id) const
{
    const std::size_t mask = index.size() - 1;
    for (std::size_t c = homeCell(id, indexBits);; c = (c + 1) & mask) {
        LAORAM_ASSERT(index[c].pos != kNone, "block ", id,
                      " missing from the stash index");
        if (index[c].id == id)
            return c;
    }
}

StashEntry *
Stash::find(BlockId id)
{
    const std::uint32_t pos = positionOf(id);
    return pos == kNone ? nullptr : &slab[pos].entry;
}

const StashEntry *
Stash::find(BlockId id) const
{
    const std::uint32_t pos = positionOf(id);
    return pos == kNone ? nullptr : &slab[pos].entry;
}

std::uint32_t
Stash::acquire(BlockId id, bool &created)
{
    // Keep the load factor at or below 1/2 so probe chains stay short.
    if ((live + 1) * 2 > index.size())
        rehash(std::max(kMinIndexBits, indexBits + 1));

    const std::size_t mask = index.size() - 1;
    std::size_t c = homeCell(id, indexBits);
    for (; index[c].pos != kNone; c = (c + 1) & mask) {
        if (index[c].id == id) {
            created = false;
            return index[c].pos;
        }
    }
    LAORAM_ASSERT(live < kNone, "stash exceeds 2^32 - 1 entries");
    const auto pos = static_cast<std::uint32_t>(live);
    index[c] = {id, pos};
    // Reuse a spare slot (and its payload buffer) when there is one.
    if (live == slab.size())
        slab.emplace_back();
    StashSlot &slot = slab[live++];
    slot.id = id;
    slot.entry.pinned = false;
    slot.entry.payload.clear();
    created = true;
    return pos;
}

StashEntry &
Stash::findOrCreate(BlockId id, Leaf leaf, std::size_t payloadBytes)
{
    bool created = false;
    StashEntry &entry = slab[acquire(id, created)].entry;
    entry.leaf = leaf;
    if (created)
        entry.payload.assign(payloadBytes, 0);
    return entry;
}

StashEntry &
Stash::put(BlockId id, Leaf leaf, const std::uint8_t *payload,
           std::size_t len)
{
    bool created = false;
    StashEntry &entry = slab[acquire(id, created)].entry;
    entry.leaf = leaf;
    entry.payload.assign(payload, payload + len);
    return entry;
}

void
Stash::erase(BlockId id)
{
    const std::uint32_t pos = positionOf(id);
    if (pos != kNone)
        eraseAt(&pos, 1);
}

void
Stash::unlinkCell(std::size_t hole)
{
    // Backward-shift deletion: pull every later member of the probe
    // chain whose home does not lie cyclically in (hole, c] back into
    // the hole, so lookups never meet a gap inside a chain.
    const std::size_t mask = index.size() - 1;
    for (std::size_t c = (hole + 1) & mask; index[c].pos != kNone;
         c = (c + 1) & mask) {
        const std::size_t home = homeCell(index[c].id, indexBits);
        const bool inRange = hole <= c ? (hole < home && home <= c)
                                       : (hole < home || home <= c);
        if (!inRange) {
            index[hole] = index[c];
            hole = c;
        }
    }
    index[hole].pos = kNone;
}

void
Stash::eraseAt(const std::uint32_t *positions, std::size_t n)
{
    if (n == 0)
        return;
    if (eraseMarks.size() < live)
        eraseMarks.resize(slab.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t pos = positions[i];
        LAORAM_ASSERT(pos < live, "erase of stash position ", pos,
                      " beyond size ", live);
        LAORAM_ASSERT(!eraseMarks[pos], "stash position ", pos,
                      " erased twice");
        eraseMarks[pos] = 1;
    }

    // Stable compaction: survivors slide down in order, and the erased
    // slots — payload buffers intact — collect past the new size as
    // spares for later inserts.
    std::size_t keep = 0;
    for (std::size_t pos = 0; pos < live; ++pos) {
        if (eraseMarks[pos]) {
            eraseMarks[pos] = 0;
            unlinkCell(cellOf(slab[pos].id));
            continue;
        }
        if (keep != pos) {
            std::swap(slab[keep], slab[pos]);
            index[cellOf(slab[keep].id)].pos =
                static_cast<std::uint32_t>(keep);
        }
        ++keep;
    }
    live = keep;
}

void
Stash::rehash(unsigned log2Cells)
{
    indexBits = log2Cells;
    index.assign(std::size_t{1} << log2Cells, Cell{});
    const std::size_t mask = index.size() - 1;
    for (std::size_t pos = 0; pos < live; ++pos) {
        std::size_t c = homeCell(slab[pos].id, indexBits);
        while (index[c].pos != kNone)
            c = (c + 1) & mask;
        index[c] = {slab[pos].id, static_cast<std::uint32_t>(pos)};
    }
}

void
Stash::unpinAll()
{
    for (StashSlot &slot : *this)
        slot.entry.pinned = false;
}

void
Stash::save(serde::Serializer &s) const
{
    s.u64(live);
    for (const StashSlot &slot : *this) {
        s.u64(slot.id);
        s.u64(slot.entry.leaf);
        s.u8(slot.entry.pinned ? 1 : 0);
        s.blob(slot.entry.payload);
    }
}

void
Stash::restore(serde::Deserializer &d)
{
    live = 0;
    std::fill(index.begin(), index.end(), Cell{});
    const std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const BlockId id = d.u64();
        const Leaf leaf = d.u64();
        const bool pinned = d.u8() != 0;
        const std::vector<std::uint8_t> payload = d.blob();
        if (contains(id))
            throw serde::SnapshotError("stash snapshot lists block "
                                       + std::to_string(id) + " twice");
        put(id, leaf, payload.data(), payload.size()).pinned = pinned;
    }
}

} // namespace laoram::oram
