#include "crypto/encryptor.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/rng.hh"

namespace laoram::crypto {

namespace {

Nonce96
nonceFor(std::uint64_t slot, std::uint32_t epoch)
{
    // Nonce = slot id (8 bytes LE) || epoch (4 bytes LE): unique per
    // (slot, write) pair, which is all a stream cipher needs.
    Nonce96 nonce{};
    for (int i = 0; i < 8; ++i)
        nonce[i] = static_cast<std::uint8_t>(slot >> (8 * i));
    for (int i = 0; i < 4; ++i)
        nonce[8 + i] = static_cast<std::uint8_t>(epoch >> (8 * i));
    return nonce;
}

/**
 * XOR @p n records of @p len bytes at @p data with the keystreams of
 * (slots[i], epochOf(slots[i])), calling epochOf in op order. Nonces
 * are staged a chunk at a time on the stack; a chunk's blocks fill
 * whole steps of every kernel, so only the batch's last step can run
 * part-full.
 */
template <typename EpochOf>
void
xorSlots(const Key256 &key, const std::uint64_t *slots, std::size_t n,
         std::uint8_t *data, std::size_t len, EpochOf epochOf)
{
    constexpr std::size_t kChunk = 64;
    static_assert(kChunk % ChaCha20::maxStepBlocks == 0,
                  "a chunk of records fills whole steps of every kernel");
    Nonce96 nonces[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t m = std::min(kChunk, n - base);
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t slot = slots[base + i];
            nonces[i] = nonceFor(slot, epochOf(slot));
        }
        ChaCha20::xorStreams(key, nonces, m, 0, data + base * len, len);
    }
}

} // namespace

Encryptor::Encryptor(const Key256 &key, std::uint64_t slots)
    : isEnabled(true), key(key), epochs(slots, 0)
{
}

Encryptor::Encryptor() : isEnabled(false) {}

Encryptor
Encryptor::makeDisabled()
{
    return Encryptor();
}

void
Encryptor::encryptSlots(const std::uint64_t *slots, std::size_t n,
                        std::uint8_t *data, std::size_t len)
{
    if (!isEnabled)
        return;
    xorSlots(key, slots, n, data, len, [this](std::uint64_t slot) {
        LAORAM_ASSERT(slot < epochs.size(), "slot out of range");
        return ++epochs[slot];
    });
}

void
Encryptor::decryptSlots(const std::uint64_t *slots, std::size_t n,
                        std::uint8_t *data, std::size_t len) const
{
    if (!isEnabled)
        return;
    xorSlots(key, slots, n, data, len, [this](std::uint64_t slot) {
        LAORAM_ASSERT(slot < epochs.size(), "slot out of range");
        return epochs[slot];
    });
}

std::array<std::uint8_t, kKeyCheckBytes>
Encryptor::keyCheck() const
{
    std::array<std::uint8_t, kKeyCheckBytes> out{};
    if (!isEnabled)
        return out;
    // Slot index all-ones is unreachable by record writes (slots are
    // bounded by epochs.size()), so this nonce never collides with a
    // record keystream.
    const Nonce96 nonce = nonceFor(~std::uint64_t{0}, 0);
    ChaCha20::xorStreams(key, &nonce, 1, 0, out.data(), out.size());
    return out;
}

void
Encryptor::restoreEpochs(const std::uint32_t *data, std::uint64_t count)
{
    LAORAM_ASSERT(isEnabled, "restoring epochs on a disabled encryptor");
    LAORAM_ASSERT(count == epochs.size(), "epoch table holds ", count,
                  " entries, storage has ", epochs.size(), " slots");
    epochs.assign(data, data + count);
}

Key256
Encryptor::deriveKey(std::uint64_t seed)
{
    Key256 k{};
    std::uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) {
        const std::uint64_t word = splitMix64(sm);
        for (int b = 0; b < 8; ++b)
            k[8 * i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
    return k;
}

} // namespace laoram::crypto
