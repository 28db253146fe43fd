/**
 * @file
 * One-slot test helpers. Storage has a single, vectored transfer
 * shape (ServerStorage::readSlots/writeSlots, SlotBackend::readSlots/
 * writeSlots); a single slot is a vector of one. These wrappers keep
 * tests that poke one slot at a time short.
 */

#ifndef LAORAM_TESTS_COMMON_SLOT_IO_HH
#define LAORAM_TESTS_COMMON_SLOT_IO_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "oram/server_storage.hh"
#include "storage/slot_backend.hh"

namespace laoram::slotio {

/** Decode slot @p slot of @p s into @p out. */
inline void
read(const oram::ServerStorage &s, std::uint64_t slot,
     oram::StoredBlock &out)
{
    std::vector<oram::StoredBlock> one;
    s.readSlots(&slot, 1, one);
    out = std::move(one[0]);
}

/** Write a real block (@p len payload bytes) into slot @p slot. */
inline void
write(oram::ServerStorage &s, std::uint64_t slot, oram::BlockId id,
      oram::Leaf leaf, const std::uint8_t *payload, std::size_t len)
{
    const oram::ServerStorage::SlotWriteOp op{slot, id, leaf, payload,
                                              len};
    s.writeSlots(&op, 1);
}

/** Overwrite slot @p slot with an (encrypted) dummy record. */
inline void
writeDummy(oram::ServerStorage &s, std::uint64_t slot)
{
    write(s, slot, oram::kInvalidBlock, 0, nullptr, 0);
}

/** Copy slot @p slot's raw record out of @p b. */
inline void
read(storage::SlotBackend &b, std::uint64_t slot, std::uint8_t *dst)
{
    b.readSlots(&slot, 1, dst);
}

/** Copy a raw record into slot @p slot of @p b. */
inline void
write(storage::SlotBackend &b, std::uint64_t slot,
      const std::uint8_t *src)
{
    b.writeSlots(&slot, 1, src);
}

} // namespace laoram::slotio

#endif // LAORAM_TESTS_COMMON_SLOT_IO_HH
