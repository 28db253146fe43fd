#include "crypto/chacha20.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define LAORAM_CHACHA20_X86 1
#else
#define LAORAM_CHACHA20_X86 0
#endif

namespace laoram::crypto {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the keystream XOR loads data words little-endian");

/**
 * 32-bit lanes in one vector, one typedef per kernel width. The
 * 16-byte type lowers to SSE2 on x86-64 and NEON on AArch64 without
 * any -march flag. The wider types are only operated on inside the
 * functions that carry their target attribute.
 */
typedef std::uint32_t Lanes4 __attribute__((vector_size(16)));
#if LAORAM_CHACHA20_X86
typedef std::uint32_t Lanes8 __attribute__((vector_size(32)));
typedef std::uint32_t Lanes16 __attribute__((vector_size(64)));
#endif

#define LAORAM_INLINE inline __attribute__((always_inline))

/**
 * A step's worth of keystream blocks, kStep = W lanes x G vector
 * groups: RFC 8439 state words 12..15 (counter, nonce) transposed so
 * that a vector of lanes loads with one copy, and the up to 64 data
 * bytes each block is XORed into. An idle lane has len 0.
 */
template <std::size_t kStep>
struct Jobs
{
    alignas(64) std::uint32_t words[4][kStep];
    std::uint8_t *data[kStep];
    std::size_t len[kStep];
};

inline std::uint32_t
load32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
        | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16)
        | (static_cast<std::uint32_t>(p[3]) << 24);
}

/*
 * The vector helpers are always_inline and take and fill references:
 * a 32/64-byte vector passed or returned by value changes the call
 * ABI outside its target, which -Wpsabi flags even where the call is
 * inlined.
 */

template <typename V>
LAORAM_INLINE void
splat(V &out, std::uint32_t v)
{
    out = V{} + v;
}

template <typename V>
LAORAM_INLINE void
loadLanes(V &out, const std::uint32_t *p)
{
    std::memcpy(&out, p, sizeof(out));
}

template <int k, typename V>
LAORAM_INLINE void
rotl(V &x)
{
    x = (x << k) | (x >> (32 - k));
}

template <typename V>
LAORAM_INLINE void
quarterRound(V &a, V &b, V &c, V &d)
{
    a += b; d ^= a; rotl<16>(d);
    c += d; b ^= c; rotl<12>(b);
    a += b; d ^= a; rotl<8>(d);
    c += d; b ^= c; rotl<7>(b);
}

/**
 * XOR lane @p l of the transposed keystream @p ks (word i of the
 * lane's block at ks[i * kLanes + l]) into @p len bytes at @p data.
 */
template <std::size_t kLanes>
LAORAM_INLINE void
xorLane(std::uint8_t *data, std::size_t len, const std::uint32_t *ks,
        std::size_t l)
{
    std::size_t off = 0;
    for (; off + 8 <= len; off += 8) {
        const std::size_t w = off / 4;
        std::uint64_t d;
        std::memcpy(&d, data + off, sizeof(d));
        d ^= static_cast<std::uint64_t>(ks[w * kLanes + l])
            | (static_cast<std::uint64_t>(ks[(w + 1) * kLanes + l])
               << 32);
        std::memcpy(data + off, &d, sizeof(d));
    }
    for (; off < len; ++off)
        data[off] ^= static_cast<std::uint8_t>(
            ks[(off / 4) * kLanes + l] >> (8 * (off % 4)));
}

/**
 * Run the 20 rounds for a step of jobs at once, lane l of vector
 * group g holding job g * kLanes + l, and XOR each keystream block
 * into its job's bytes.
 */
template <typename V, std::size_t G>
LAORAM_INLINE void
runStep(const std::uint32_t key[8], const Jobs<sizeof(V) / 4 * G> &jobs)
{
    constexpr std::size_t kLanes = sizeof(V) / sizeof(std::uint32_t);
    V in[G][16] = {};
    V x[G][16] = {};
    for (std::size_t g = 0; g < G; ++g) {
        const std::size_t j = g * kLanes;
        // "expand 32-byte k" constants per RFC 8439 §2.3.
        static constexpr std::uint32_t kSigma[4] = {
            0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
        V *v = in[g];
        for (int i = 0; i < 4; ++i)
            splat(v[i], kSigma[i]);
        for (int i = 0; i < 8; ++i)
            splat(v[4 + i], key[i]);
        for (int i = 0; i < 4; ++i)
            loadLanes(v[12 + i], jobs.words[i] + j);
        for (int i = 0; i < 16; ++i)
            x[g][i] = v[i];
    }

    for (int round = 0; round < 10; ++round) {
        for (std::size_t g = 0; g < G; ++g) {
            V *v = x[g];
            // column rounds
            quarterRound(v[0], v[4], v[8], v[12]);
            quarterRound(v[1], v[5], v[9], v[13]);
            quarterRound(v[2], v[6], v[10], v[14]);
            quarterRound(v[3], v[7], v[11], v[15]);
            // diagonal rounds
            quarterRound(v[0], v[5], v[10], v[15]);
            quarterRound(v[1], v[6], v[11], v[12]);
            quarterRound(v[2], v[7], v[8], v[13]);
            quarterRound(v[3], v[4], v[9], v[14]);
        }
    }

    for (std::size_t g = 0; g < G; ++g) {
        alignas(64) std::uint32_t ks[16 * kLanes];
        for (int i = 0; i < 16; ++i) {
            x[g][i] += in[g][i];
            std::memcpy(ks + i * kLanes, &x[g][i], sizeof(x[g][i]));
        }
        for (std::size_t l = 0; l < kLanes; ++l)
            xorLane<kLanes>(jobs.data[g * kLanes + l],
                            jobs.len[g * kLanes + l], ks, l);
    }
}

/**
 * The kernel body at one width: flatten the batch into (message,
 * block) jobs and run them a step at a time; a message's blocks may
 * straddle steps, and only the last step can run part-full.
 */
template <typename V, std::size_t G>
LAORAM_INLINE void
xorStreamsOn(const Key256 &key, const Nonce96 *nonces, std::size_t n,
             std::uint32_t counter, std::uint8_t *data, std::size_t len)
{
    constexpr std::size_t kStep = sizeof(V) / sizeof(std::uint32_t) * G;
    static_assert(ChaCha20::maxStepBlocks % kStep == 0,
                  "every kernel's step divides the widest one");
    std::uint32_t k[8];
    for (int i = 0; i < 8; ++i)
        k[i] = load32le(key.data() + 4 * i);

    Jobs<kStep> jobs;
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t *nonce = nonces[i].data();
        const std::uint32_t n0 = load32le(nonce);
        const std::uint32_t n1 = load32le(nonce + 4);
        const std::uint32_t n2 = load32le(nonce + 8);
        std::uint8_t *msg = data + i * len;
        std::uint32_t ctr = counter;
        for (std::size_t off = 0; off < len; off += ChaCha20::blockBytes) {
            jobs.words[0][live] = ctr++;
            jobs.words[1][live] = n0;
            jobs.words[2][live] = n1;
            jobs.words[3][live] = n2;
            jobs.data[live] = msg + off;
            jobs.len[live] = std::min(ChaCha20::blockBytes, len - off);
            if (++live == kStep) {
                runStep<V, G>(k, jobs);
                live = 0;
            }
        }
    }
    if (live == 0)
        return;
    for (; live < kStep; ++live) {
        for (auto &word : jobs.words)
            word[live] = 0;
        jobs.data[live] = nullptr;
        jobs.len[live] = 0;
    }
    runStep<V, G>(k, jobs);
}

void
xorStreams4(const Key256 &key, const Nonce96 *nonces, std::size_t n,
            std::uint32_t counter, std::uint8_t *data, std::size_t len)
{
    xorStreamsOn<Lanes4, 2>(key, nonces, n, counter, data, len);
}

#if LAORAM_CHACHA20_X86
__attribute__((target("avx2"))) void
xorStreams8(const Key256 &key, const Nonce96 *nonces, std::size_t n,
            std::uint32_t counter, std::uint8_t *data, std::size_t len)
{
    xorStreamsOn<Lanes8, 1>(key, nonces, n, counter, data, len);
}

__attribute__((target("avx512f,avx512vl"))) void
xorStreams16(const Key256 &key, const Nonce96 *nonces, std::size_t n,
             std::uint32_t counter, std::uint8_t *data, std::size_t len)
{
    xorStreamsOn<Lanes16, 1>(key, nonces, n, counter, data, len);
}
#endif

std::array<ChaCha20::Kernel, 3>
probeKernels()
{
#if LAORAM_CHACHA20_X86
    __builtin_cpu_init();
    return {{
        {16, "avx512f+avx512vl",
         __builtin_cpu_supports("avx512f")
             && __builtin_cpu_supports("avx512vl"),
         xorStreams16},
        {8, "avx2", static_cast<bool>(__builtin_cpu_supports("avx2")),
         xorStreams8},
        {4, "sse2", true, xorStreams4},
    }};
#else
    return {{
        {16, "avx512f+avx512vl", false, nullptr},
        {8, "avx2", false, nullptr},
        {4, "baseline", true, xorStreams4},
    }};
#endif
}

} // namespace

const std::array<ChaCha20::Kernel, 3> &
ChaCha20::kernels()
{
    static const std::array<Kernel, 3> table = probeKernels();
    return table;
}

void
ChaCha20::xorStreams(const Key256 &key, const Nonce96 *nonces,
                     std::size_t n, std::uint32_t counter,
                     std::uint8_t *data, std::size_t len)
{
    static const XorStreamsFn widest = [] {
        for (const Kernel &k : kernels())
            if (k.supported)
                return k.xorStreams;
        return xorStreams4;
    }();
    widest(key, nonces, n, counter, data, len);
}

} // namespace laoram::crypto
