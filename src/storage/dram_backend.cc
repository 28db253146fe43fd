#include "storage/dram_backend.hh"

namespace laoram::storage {

DramBackend::DramBackend(std::uint64_t slots, std::uint64_t recordBytes)
    : SlotBackend("dram", slots, recordBytes), raw(slots * recordBytes, 0)
{
}

} // namespace laoram::storage
