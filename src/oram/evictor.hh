/**
 * @file
 * Path I/O: the one metered primitive every tree-based engine reads,
 * writes and evicts through — fetching the union of one or more
 * paths into the stash, and the greedy deepest-first write-back that
 * refills the same union from the stash (PathORAM §3.3 / paper §II-C
 * steps 2 and 5). A single path is the union of one. On top of it
 * sit the one access step (read, touch the members, write back) and
 * the one capped background-eviction drain (§II-E) that PathORAM,
 * PrORAM, LAORAM and recursive PathORAM all serve through. RingORAM
 * fetches its valid slots and refills its EvictPath through the same
 * write-back, with S slots per bucket reserved for dummies.
 *
 * Also hosts the tree auditor used by tests to verify the core
 * PathORAM invariant: every initialised real block lies either in the
 * stash or on the path named by its position-map leaf.
 */

#ifndef LAORAM_ORAM_EVICTOR_HH
#define LAORAM_ORAM_EVICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/traffic_meter.hh"
#include "oram/position_map.hh"
#include "oram/server_storage.hh"
#include "oram/stash.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace laoram::oram {

/**
 * Path reader/writer bound to one (geometry, storage, stash, meter)
 * quadruple. Engines own one and call it for every real or dummy
 * access; each call charges the meter with the slots it moved
 * (bytes = slots x geom.blockBytes()). Its scratch buffers are reused
 * across calls, so a warmed-up PathIo allocates nothing per path.
 *
 * Every call works on the union of its paths: each union node is
 * read or written exactly once — re-reading a shared prefix node
 * would only fetch slots the client already absorbed, and
 * sequential per-path write-backs would overwrite shared prefix
 * nodes populated by the previous path. Union nodes are visited
 * deepest-first (descending heap index), for one path too.
 */
class PathIo : private ServerStorage::RecordSink
{
  public:
    /** The write-back keeps @p reserve slots per bucket dummy. */
    PathIo(const TreeGeometry &geom, ServerStorage &storage, Stash &stash,
           mem::TrafficMeter &meter, std::uint64_t reserve = 0);

    /**
     * Read the union of @p k (>= 1) paths into the stash — a LAORAM
     * superblock bin, a PrORAM merge, or one PathORAM path — and
     * charge @p k path reads. Real blocks are absorbed with the leaf
     * recorded in the tree.
     *
     * @return number of real blocks absorbed
     */
    std::uint64_t readPaths(const Leaf *leaves, std::size_t k);

    /**
     * Greedy write-back over the union of @p k (>= 1) paths, charged
     * as @p k path writes. Every unpinned stash block is bucketed
     * once, in stash order, at the deepest union node its own path
     * shares. Nodes are then filled deepest-first, each from the back
     * of its list: its own candidates in stash order followed by its
     * children's spill-over. Blocks that do not fit spill to the
     * parent (which is always in the union, since path unions are
     * ancestor-closed) and ultimately stay in the stash. Untaken
     * slots, and the last reserve slots of each bucket, are
     * overwritten with encrypted dummies.
     *
     * @return number of real blocks written back
     */
    std::uint64_t writePaths(const Leaf *leaves, std::size_t k);

    /**
     * Uncharged: read slots @p slots[0..n) into the stash (one
     * vectored op). @return number of real blocks absorbed
     */
    std::uint64_t fetchSlots(const std::uint64_t *slots, std::size_t n);

    /** Uncharged writePaths(). */
    std::uint64_t writeBack(const Leaf *leaves, std::size_t k);

    /**
     * The last write-back's slot writes in issue order; their payload
     * pointers dangle (the entries left the stash).
     */
    const std::vector<ServerStorage::SlotWriteOp> &
    lastWrite() const { return writeScratch; }

    /**
     * One background-eviction dummy access (§II-E): read @p leaf's
     * path and write it back without remapping anything, charged as
     * one dummy access.
     */
    void dummyAccess(Leaf leaf);

    /**
     * The access step (paper §II-C): read the union of @p k paths,
     * then for each of the @p n members call @p touch(i, entry) on
     * member @p ids[i]'s stash entry — created zero-filled on first
     * touch, re-leafed to @p next[i] — then write the union back.
     * The caller has already drawn the new leaves and updated its
     * position map (the step draws no randomness). @p touch is a
     * template parameter, so a batch pays no indirect call per
     * member; it may modify the entry but must not erase it.
     */
    template <typename Touch>
    void
    access(const Leaf *leaves, std::size_t k, const BlockId *ids,
           const Leaf *next, std::size_t n, Touch &&touch)
    {
        readPaths(leaves, k);
        for (std::size_t i = 0; i < n; ++i)
            touch(i, stash.findOrCreate(ids[i], next[i],
                                        storage.payloadBytes()));
        writePaths(leaves, k);
    }

    /**
     * Background eviction (§II-E): once the stash holds more than
     * @p highWater blocks, drop every prefetch pin and call
     * @p evictOne (one dummy eviction) until it is down to
     * @p lowWater — at most kMaxDummiesPerBurst times per call, with
     * a warning when the cap stops the drain.
     */
    template <typename EvictOne>
    void
    drainStash(std::uint64_t highWater, std::uint64_t lowWater,
               EvictOne &&evictOne)
    {
        if (stash.size() <= highWater)
            return;
        // Capacity trumps retention: prefetch pins are dropped before
        // the client starts paying for dummy accesses.
        stash.unpinAll();
        std::uint64_t issued = 0;
        for (; stash.size() > lowWater && issued < kMaxDummiesPerBurst;
             ++issued)
            evictOne();
        if (issued == kMaxDummiesPerBurst) {
            warn("background eviction could not drain stash below ",
                 lowWater, " (still ", stash.size(), " blocks) after ",
                 issued, " dummy accesses");
        }
    }

    /** drainStash with dummy accesses on uniform leaves from @p rng. */
    void
    drainStash(std::uint64_t highWater, std::uint64_t lowWater, Rng &rng)
    {
        drainStash(highWater, lowWater,
                   [&] { dummyAccess(rng.nextBounded(geom.numLeaves())); });
    }

    /**
     * Safety valve: with a pathological configuration (e.g. tree
     * capacity below the working set) the stash cannot drain; cap
     * the dummy burst instead of spinning forever.
     */
    static constexpr std::uint64_t kMaxDummiesPerBurst = 100000;

  private:
    /**
     * Build the deepest-first union of @p leaves' paths into
     * unionNodes (descending heap index), with leafNodePos and
     * parentPos.
     */
    void buildUnion(const Leaf *leaves, std::size_t k);

    /**
     * Fetch every unionNodes slot straight into the stash (one
     * vectored storage op); slotScratch holds the slots read.
     *
     * @return number of real blocks absorbed
     */
    std::uint64_t fetchUnion();

    /**
     * The greedy write-back of unionNodes as one vectored storage
     * op; writeScratch holds the slots written.
     *
     * @return number of real blocks written back
     */
    std::uint64_t evictUnion();

    /** RecordSink: a real record becomes a new stash entry. */
    void record(std::size_t i, BlockId id, Leaf leaf,
                const std::uint8_t *payload) override;

    const TreeGeometry &geom;
    ServerStorage &storage;
    Stash &stash;
    mem::TrafficMeter &meter;
    const std::uint64_t reserve;

    std::uint64_t absorbed = 0;
    std::vector<std::uint64_t> slotScratch;
    std::vector<ServerStorage::SlotWriteOp> writeScratch;
    /** Stash positions written back by the current write. */
    std::vector<std::uint32_t> evicted;

    std::vector<Leaf> sortedLeaves;
    std::vector<NodeIndex> unionNodes;
    /** Union position of sortedLeaves[j]'s node at level l (j*levels+l). */
    std::vector<std::uint32_t> leafNodePos;
    /** Union position of each union node's parent (root: unused). */
    std::vector<std::uint32_t> parentPos;
    /** Stash positions waiting at each union node (empty between calls). */
    std::vector<std::vector<std::uint32_t>> pending;
};

/**
 * Exhaustively audit the tree + stash against the position map.
 *
 * Checks, for every real block found in server storage: its stored
 * leaf matches the position map, and the node it occupies lies on that
 * leaf's path; and that no block appears twice (tree/tree or
 * tree/stash).
 *
 * @return empty string when consistent, else a description of the
 *         first violation (tests assert on empty)
 */
std::string auditTree(const TreeGeometry &geom,
                      const ServerStorage &storage,
                      const Stash &stash, const PositionMap &posmap);

} // namespace laoram::oram

#endif // LAORAM_ORAM_EVICTOR_HH
