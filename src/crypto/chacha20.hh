/**
 * @file
 * ChaCha20 stream cipher (RFC 8439 block function).
 *
 * The paper assumes server-resident embedding blocks are encrypted so
 * that only the *address* stream leaks; we implement that assumption
 * rather than hand-waving it. ChaCha20 is used (a) by Encryptor to
 * encrypt bucket payloads at rest and (b) as a deterministic keyed PRF
 * where tests need reproducible pseudorandom bytes.
 *
 * One lane-parallel kernel serves every call: a batch of messages is
 * flattened into (message, block) lanes and run 8 ChaCha20 blocks per
 * step on 16-byte GCC vector lanes (SSE2 / NEON, no -march flag), and
 * the keystream is XORed a word at a time. A single block or message
 * is a batch of one. Sealing an 80-B record (two blocks) in a
 * 133-record batch takes ~140 ns, against ~350-390 ns for the
 * block-at-a-time, byte-XOR scalar version it replaced (2.1 GHz
 * Xeon, gcc 12 -O3). Validated against the RFC 8439 test vectors in
 * tests/crypto, in every lane position.
 */

#ifndef LAORAM_CRYPTO_CHACHA20_HH
#define LAORAM_CRYPTO_CHACHA20_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace laoram::crypto {

/** 256-bit key. */
using Key256 = std::array<std::uint8_t, 32>;
/** 96-bit nonce (RFC 8439 layout). */
using Nonce96 = std::array<std::uint8_t, 12>;

/**
 * ChaCha20 keystream generator / XOR cipher.
 *
 * Stateless convenience API: every call derives the keystream from
 * (key, nonce, counter), so encrypt and decrypt are the same operation.
 */
class ChaCha20
{
  public:
    static constexpr std::size_t blockBytes = 64;

    /**
     * Produce one 64-byte keystream block.
     *
     * @param key      256-bit key
     * @param nonce    96-bit nonce
     * @param counter  block counter (RFC 8439 initial counter word)
     * @param out      64-byte output buffer
     */
    static void block(const Key256 &key, const Nonce96 &nonce,
                      std::uint32_t counter,
                      std::uint8_t out[blockBytes]);

    /**
     * XOR @p len bytes of @p data in place with the keystream starting
     * at block @p counter. Encrypt == decrypt.
     */
    static void xorStream(const Key256 &key, const Nonce96 &nonce,
                          std::uint32_t counter, std::uint8_t *data,
                          std::size_t len);

    /**
     * Batched xorStream: XOR @p n messages of @p len bytes each in
     * place, message i at @p data + i * len under @p nonces[i], every
     * keystream starting at block @p counter. Byte-identical to n
     * xorStream calls.
     */
    static void xorStreams(const Key256 &key, const Nonce96 *nonces,
                           std::size_t n, std::uint32_t counter,
                           std::uint8_t *data, std::size_t len);
};

} // namespace laoram::crypto

#endif // LAORAM_CRYPTO_CHACHA20_HH
