/**
 * @file
 * Stash test helper. Stash::put takes a pointer and a length; this
 * wrapper keeps tests that build payloads as vectors or brace lists
 * short.
 */

#ifndef LAORAM_TESTS_COMMON_STASH_IO_HH
#define LAORAM_TESTS_COMMON_STASH_IO_HH

#include <cstdint>
#include <vector>

#include "oram/stash.hh"

namespace laoram::stashio {

/** Insert or overwrite @p id in @p s with a copy of @p payload. */
inline oram::StashEntry &
put(oram::Stash &s, oram::BlockId id, oram::Leaf leaf,
    const std::vector<std::uint8_t> &payload)
{
    return s.put(id, leaf, payload.data(), payload.size());
}

} // namespace laoram::stashio

#endif // LAORAM_TESTS_COMMON_STASH_IO_HH
