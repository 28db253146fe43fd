/**
 * @file
 * Client-side stash: trusted overflow storage for blocks that could not
 * be written back into the tree (paper §II-E). Lives in GPU HBM in the
 * paper's deployment; accesses to it are invisible to the adversary.
 */

#ifndef LAORAM_ORAM_STASH_HH
#define LAORAM_ORAM_STASH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oram/types.hh"
#include "util/serde.hh"

namespace laoram::oram {

/** A block resident in the stash. */
struct StashEntry
{
    Leaf leaf = 0;
    /**
     * Pinned entries are retained client-side and skipped by
     * write-back eviction — used by superblock engines to keep a
     * prefetched group resident until its pending accesses arrive.
     */
    bool pinned = false;
    std::vector<std::uint8_t> payload;
};

/** One stash-resident block: its id and entry. */
struct StashSlot
{
    BlockId id = kInvalidBlock; ///< read-only through iteration
    StashEntry entry;
};

/**
 * Slab stash: live entries sit densely in slab positions [0, size()),
 * found through a flat open-addressing (linear-probing) id -> position
 * index. Nothing is node-allocated, and the slab past size() keeps the
 * payload buffers of erased entries, which new entries reuse — so a
 * stash that has reached its peak size allocates nothing more.
 *
 * Iteration order is slab order, a defined function of the operation
 * sequence: a new id is appended; erasing keeps the survivors' relative
 * order. Positions are stable until the next erase.
 */
class Stash
{
  public:
    /** @return entry for @p id or nullptr. */
    StashEntry *find(BlockId id);
    const StashEntry *find(BlockId id) const;

    /**
     * Insert @p id, or re-leaf it when present. A new entry's payload
     * is @p payloadBytes zero bytes — a recycled buffer is cleared
     * first, so no earlier block's bytes leak into it; a present
     * entry keeps its payload and pin.
     */
    StashEntry &findOrCreate(BlockId id, Leaf leaf,
                             std::size_t payloadBytes);

    /** Insert or overwrite @p id with a copy of @p len payload bytes. */
    StashEntry &put(BlockId id, Leaf leaf, const std::uint8_t *payload,
                    std::size_t len);

    void erase(BlockId id);

    /**
     * Erase the entries at slab positions @p positions[0..n) (distinct,
     * each < size()) in one compaction pass.
     */
    void eraseAt(const std::uint32_t *positions, std::size_t n);

    bool contains(BlockId id) const { return positionOf(id) != kNone; }

    /** Clear every pin (used when stash pressure trumps retention). */
    void unpinAll();

    std::uint64_t size() const { return live; }
    bool empty() const { return live == 0; }

    /** The entry at slab position @p pos (< size()). */
    const StashSlot &at(std::size_t pos) const { return slab[pos]; }

    /** Iterate all (id, entry) pairs in slab order; leaves may change. */
    StashSlot *begin() { return slab.data(); }
    StashSlot *end() { return slab.data() + live; }
    const StashSlot *begin() const { return slab.data(); }
    const StashSlot *end() const { return slab.data() + live; }

    /** Approximate client memory held by stash blocks. */
    std::uint64_t residentBytes(std::uint64_t payloadBytes) const
    {
        return size() * (sizeof(BlockId) + sizeof(Leaf) + payloadBytes);
    }

    /**
     * Checkpoint support. Entries are serialized in slab order, so
     * restore() rebuilds the same iteration order — and with it the
     * same future evictions — as the saved stash. restore() replaces
     * the current contents.
     */
    void save(serde::Serializer &s) const;
    void restore(serde::Deserializer &d);

    /**
     * Home cell of @p id in an index of 2^@p log2Cells cells
     * (Fibonacci hashing: the top bits of id * 2^64/phi).
     */
    static std::size_t homeCell(BlockId id, unsigned log2Cells)
    {
        return static_cast<std::size_t>(
            (id * 0x9E3779B97F4A7C15ULL) >> (64 - log2Cells));
    }

  private:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /** Index cell: an id and its slab position (kNone = empty). */
    struct Cell
    {
        BlockId id = 0;
        std::uint32_t pos = kNone;
    };

    std::uint32_t positionOf(BlockId id) const;

    /** Index cell holding @p id (which must be present). */
    std::size_t cellOf(BlockId id) const;

    /** Find or append @p id; @p created reports which. */
    std::uint32_t acquire(BlockId id, bool &created);

    /** Backward-shift deletion of index cell @p hole. */
    void unlinkCell(std::size_t hole);

    /** Rebuild the index at 2^@p log2Cells cells from the slab. */
    void rehash(unsigned log2Cells);

    std::vector<StashSlot> slab; ///< [0, live) live; the rest spares
    std::size_t live = 0;
    std::vector<Cell> index;     ///< 2^indexBits cells, load <= 1/2
    unsigned indexBits = 0;
    std::vector<std::uint8_t> eraseMarks; ///< eraseAt scratch
};

} // namespace laoram::oram

#endif // LAORAM_ORAM_STASH_HH
