#include "oram/path_oram.hh"

#include "util/logging.hh"

namespace laoram::oram {

PathOram::PathOram(const EngineConfig &cfg) : TreeOramBase(cfg)
{
    restoreAtConstructionIfConfigured();
}

void
PathOram::access(BlockId id, AccessOp op, const std::uint8_t *in,
                 std::size_t len, std::vector<std::uint8_t> *out)
{
    LAORAM_ASSERT(id < cfg.numBlocks, "block ", id, " out of range");
    mtr.recordLogicalAccess();

    // (1) Look up the current path; even a stash-resident block incurs
    // a full path access so that the server-visible pattern stays
    // independent of stash state.
    const Leaf current = posmap_.get(id);
    if (stash_.contains(id))
        mtr.recordStashHit();

    // (2)-(5) Remap to an independent uniform leaf, fetch the path,
    // operate on the block inside trusted memory and write the path
    // back greedily.
    const Leaf next = randomLeaf();
    posmap_.set(id, next);
    pathIo_.access(&current, 1, &id, &next, 1,
                   [&](std::size_t, StashEntry &entry) {
                       applyOp(entry, op, in, len, out);
                   });

    // §II-E: dummy reads once the stash passes its threshold.
    finishAccess();
}

} // namespace laoram::oram
