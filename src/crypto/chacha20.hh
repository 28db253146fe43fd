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
 * One lane-parallel kernel template serves every call: a batch of
 * messages is flattened into (message, block) lanes, run a step of
 * blocks at a time on GCC vector lanes, and the keystream is XORed a
 * word at a time. It is compiled at three widths, listed widest first
 * in ChaCha20::kernels():
 *   - 16 lanes, one 16-block step per 64-byte vector (AVX-512F+VL,
 *     whose rotates lower to vprold);
 *   - 8 lanes, one 8-block step per 32-byte vector (AVX2);
 *   - 4 lanes x 2 interleaved groups, 8 blocks per step (SSE2 on
 *     x86-64, NEON on AArch64: the baseline every CPU runs).
 * The wide kernels are built with per-function target attributes, so
 * the library needs no -march flag. ChaCha20::xorStreams runs the
 * widest kernel the CPU supports, chosen once on first use; every
 * width yields the same bytes, so nothing stored, sent or traced
 * depends on the choice. Sealing and then opening an 80-B record
 * (two blocks) of a 133-record path costs ~150 ns at 4 lanes, ~100 ns
 * at 8 and ~50 ns at 16 (BM_SealPath/lanes:N, 2.1 GHz Xeon, gcc 12
 * -O3). Validated against the RFC 8439 test vectors in tests/crypto,
 * in every lane position of every width.
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
     * Blocks per step of the widest kernel. A batch whose block count
     * is a multiple of it runs no part-full step on any kernel.
     */
    static constexpr std::size_t maxStepBlocks = 16;

    /** Signature shared by xorStreams and every compiled kernel. */
    using XorStreamsFn = void (*)(const Key256 &key,
                                  const Nonce96 *nonces, std::size_t n,
                                  std::uint32_t counter,
                                  std::uint8_t *data, std::size_t len);

    /** One compiled width of the keystream kernel. */
    struct Kernel
    {
        std::size_t lanes;       ///< 32-bit lanes per vector
        const char *isa;         ///< instruction set it needs
        bool supported;          ///< this CPU can run it
        XorStreamsFn xorStreams; ///< entry point; null if not built
    };

    /** Every kernel width, widest first; all are byte-identical. */
    static const std::array<Kernel, 3> &kernels();

    /**
     * XOR @p n messages of @p len bytes each in place, message i at
     * @p data + i * len, with the keystream of (@p key, @p nonces[i])
     * starting at block @p counter. Encrypt == decrypt; a single
     * message is a batch of one. Runs the first supported entry of
     * kernels().
     */
    static void xorStreams(const Key256 &key, const Nonce96 *nonces,
                           std::size_t n, std::uint32_t counter,
                           std::uint8_t *data, std::size_t len);
};

} // namespace laoram::crypto

#endif // LAORAM_CRYPTO_CHACHA20_HH
