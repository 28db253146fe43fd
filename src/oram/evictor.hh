/**
 * @file
 * Path I/O: the two primitive server interactions every tree-based
 * engine is built from — reading a full path into the stash, and the
 * greedy deepest-first write-back that refills the same path from the
 * stash (PathORAM §3.3 / paper §II-C steps 2 and 5).
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

#include "oram/position_map.hh"
#include "oram/server_storage.hh"
#include "oram/stash.hh"
#include "oram/tree_geometry.hh"
#include "oram/types.hh"

namespace laoram::oram {

/**
 * Stateless-per-call path reader/writer bound to one (geometry,
 * storage, stash) triple. Engines own one and call it for every real
 * or dummy access. Its scratch buffers are reused across calls, so a
 * warmed-up PathIo allocates nothing per path.
 */
class PathIo : private ServerStorage::RecordSink
{
  public:
    PathIo(const TreeGeometry &geom, ServerStorage &storage, Stash &stash);

    /**
     * Read every slot on @p leaf's path; absorb real blocks into the
     * stash (their assigned leaf comes from the stored record).
     *
     * @return number of real blocks absorbed
     */
    std::uint64_t readPath(Leaf leaf);

    /**
     * Greedy write-back along @p leaf's path: writePathsBatched over
     * the single path.
     *
     * @return number of real blocks written back
     */
    std::uint64_t writePath(Leaf leaf);

    /**
     * Batched read of several paths (a LAORAM superblock bin or a
     * PrORAM merge): each node in the union of the paths is read
     * exactly once — re-reading a shared prefix node would only fetch
     * slots the client already absorbed.
     *
     * @return number of physical slots read (union size)
     */
    std::uint64_t readPathsBatched(const std::vector<Leaf> &leaves);

    /**
     * Batched greedy write-back over the union of several paths.
     * Every unpinned stash block is bucketed once, in stash order, at
     * the deepest union node its own path shares. Nodes are then
     * filled deepest-first, each from the back of its list: its own
     * candidates in stash order followed by its children's
     * spill-over. Blocks that do not fit spill to the parent (which
     * is always in the union, since path unions are ancestor-closed)
     * and ultimately stay in the stash. Untaken slots are
     * overwritten with encrypted dummies.
     *
     * Writing the union once — instead of path-by-path — is required
     * for correctness: sequential per-path write-backs would overwrite
     * shared prefix nodes populated by the previous path.
     *
     * @return number of physical slots written (union size)
     */
    std::uint64_t writePathsBatched(const std::vector<Leaf> &leaves);

  private:
    /**
     * Build the deepest-first union of @p leaves' paths into
     * unionNodes (descending heap index), with leafNodePos and
     * parentPos.
     */
    void buildUnion(const Leaf *leaves, std::size_t k);

    /** The greedy write-back; @return real blocks written. */
    std::uint64_t writeUnion(const Leaf *leaves, std::size_t k);

    /**
     * Vectored fetch of slotScratch straight into the stash (one
     * storage op); returns the number of real blocks absorbed.
     */
    std::uint64_t absorbSlots();

    /** RecordSink: a real record becomes a new stash entry. */
    void record(std::size_t i, BlockId id, Leaf leaf,
                const std::uint8_t *payload) override;

    const TreeGeometry &geom;
    ServerStorage &storage;
    Stash &stash;

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
