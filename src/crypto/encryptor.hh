/**
 * @file
 * Bucket payload encryption for server storage.
 *
 * Every physical bucket slot is encrypted under a per-slot nonce derived
 * from (slot id, write epoch), so rewriting the same slot never reuses a
 * keystream. Because ORAM security rests on the *address* stream, the
 * cipher's job here is only to keep contents (including whether a slot
 * holds a real or dummy block) opaque — which a fresh-nonce stream
 * cipher provides.
 */

#ifndef LAORAM_CRYPTO_ENCRYPTOR_HH
#define LAORAM_CRYPTO_ENCRYPTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/chacha20.hh"

namespace laoram::crypto {

/** Size of the key-check canary (see Encryptor::keyCheck). */
inline constexpr std::size_t kKeyCheckBytes = 16;

/**
 * Encrypts/decrypts batches of slot records in place.
 *
 * Tracks a per-slot write epoch internally; callers just say
 * "encrypt these slots now" and "decrypt these slots" and nonce
 * management is handled. A batch runs as one lane-parallel ChaCha20
 * call (ChaCha20::xorStreams); a single slot is a batch of one.
 * Disabled mode (makeDisabled()) is a no-op pass-through used by
 * large benches where encryption throughput is not the metric.
 */
class Encryptor
{
  public:
    /** Construct an enabled encryptor over @p slots slots. */
    Encryptor(const Key256 &key, std::uint64_t slots);

    /** A pass-through encryptor (no crypto, no epoch state). */
    static Encryptor makeDisabled();

    bool enabled() const { return isEnabled; }

    /**
     * Encrypt @p n records of @p len bytes in place, record i at
     * @p data + i * len, as the next write of @p slots[i]. Epochs are
     * bumped in op order, so a slot listed twice is sealed under two
     * fresh nonces exactly as two single-slot calls would be.
     */
    void encryptSlots(const std::uint64_t *slots, std::size_t n,
                      std::uint8_t *data, std::size_t len);

    /**
     * Decrypt @p n records of @p len bytes in place, record i at
     * @p data + i * len, under @p slots[i]'s current epoch.
     */
    void decryptSlots(const std::uint64_t *slots, std::size_t n,
                      std::uint8_t *data, std::size_t len) const;

    /** Derive a key from a 64-bit seed (tests / examples convenience). */
    static Key256 deriveKey(std::uint64_t seed);

    /**
     * Epoch-table persistence (nonces are not secret): a persistent
     * storage backend saves the table alongside the slot data so an
     * encrypted tree still decrypts after a process restart.
     */
    const std::uint32_t *epochData() const { return epochs.data(); }
    std::uint64_t epochCount() const { return epochs.size(); }
    void restoreEpochs(const std::uint32_t *data, std::uint64_t count);

    /**
     * Deterministic key fingerprint: the keystream for a reserved
     * nonce (slot = all-ones, epoch = 0) that no record write can
     * ever use. Persisted next to the epoch table so a reopen under
     * the wrong key fails loudly instead of silently serving
     * garbage records.
     */
    std::array<std::uint8_t, kKeyCheckBytes> keyCheck() const;

  private:
    Encryptor(); // disabled-mode constructor

    bool isEnabled;
    Key256 key{};
    std::vector<std::uint32_t> epochs;
};

} // namespace laoram::crypto

#endif // LAORAM_CRYPTO_ENCRYPTOR_HH
