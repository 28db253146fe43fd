#include "crypto/chacha20.hh"

#include <algorithm>
#include <cstring>

namespace laoram::crypto {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the keystream XOR loads data words little-endian");

/**
 * Four 32-bit lanes in one 16-byte vector. The generic vector
 * extension lowers to SSE2 on x86-64 and NEON on AArch64 without any
 * -march flag; wider vectors would be split (and warn -Wpsabi) on a
 * baseline x86-64 target.
 */
typedef std::uint32_t Lanes __attribute__((vector_size(16)));

constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(std::uint32_t);
static_assert(kLanes == 4, "lane initialisers below list four words");

/** Vectors interleaved per step, so 8 blocks are in flight at once. */
constexpr std::size_t kGroups = 2;
constexpr std::size_t kStepBlocks = kLanes * kGroups;

/**
 * One keystream block of a batch: RFC 8439 state words 12..15
 * (counter, nonce) and the up to 64 data bytes it is XORed into. An
 * idle lane has len 0.
 */
struct Job
{
    std::uint32_t words[4];
    std::uint8_t *data;
    std::size_t len;
};

inline std::uint32_t
load32le(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
        | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16)
        | (static_cast<std::uint32_t>(p[3]) << 24);
}

inline Lanes
splat(std::uint32_t v)
{
    return Lanes{v, v, v, v};
}

inline Lanes
rotl(Lanes x, int k)
{
    return (x << k) | (x >> (32 - k));
}

inline void
quarterRound(Lanes &a, Lanes &b, Lanes &c, Lanes &d)
{
    a += b; d ^= a; d = rotl(d, 16);
    c += d; b ^= c; b = rotl(b, 12);
    a += b; d ^= a; d = rotl(d, 8);
    c += d; b ^= c; b = rotl(b, 7);
}

/** XOR lane @p l of the transposed keystream @p ks into @p job. */
inline void
xorLane(const Job &job, const std::uint32_t ks[16][kLanes],
        std::size_t l)
{
    std::size_t off = 0;
    for (; off + 8 <= job.len; off += 8) {
        const std::size_t w = off / 4;
        std::uint64_t d;
        std::memcpy(&d, job.data + off, sizeof(d));
        d ^= static_cast<std::uint64_t>(ks[w][l])
            | (static_cast<std::uint64_t>(ks[w + 1][l]) << 32);
        std::memcpy(job.data + off, &d, sizeof(d));
    }
    for (; off < job.len; ++off)
        job.data[off] ^=
            static_cast<std::uint8_t>(ks[off / 4][l] >> (8 * (off % 4)));
}

/**
 * Run the 20 rounds for kStepBlocks jobs at once, lane l of vector
 * group g holding job g * kLanes + l, and XOR each keystream block
 * into its job's bytes.
 */
void
runStep(const std::uint32_t key[8], const Job jobs[kStepBlocks])
{
    Lanes in[kGroups][16];
    Lanes x[kGroups][16];
    for (std::size_t g = 0; g < kGroups; ++g) {
        const Job *j = jobs + g * kLanes;
        // "expand 32-byte k" constants per RFC 8439 §2.3.
        Lanes state[16] = {
            splat(0x61707865), splat(0x3320646e), splat(0x79622d32),
            splat(0x6b206574), splat(key[0]),     splat(key[1]),
            splat(key[2]),     splat(key[3]),     splat(key[4]),
            splat(key[5]),     splat(key[6]),     splat(key[7]),
            Lanes{j[0].words[0], j[1].words[0], j[2].words[0],
                  j[3].words[0]},
            Lanes{j[0].words[1], j[1].words[1], j[2].words[1],
                  j[3].words[1]},
            Lanes{j[0].words[2], j[1].words[2], j[2].words[2],
                  j[3].words[2]},
            Lanes{j[0].words[3], j[1].words[3], j[2].words[3],
                  j[3].words[3]},
        };
        for (int i = 0; i < 16; ++i)
            in[g][i] = x[g][i] = state[i];
    }

    for (int round = 0; round < 10; ++round) {
        for (std::size_t g = 0; g < kGroups; ++g) {
            Lanes *v = x[g];
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

    for (std::size_t g = 0; g < kGroups; ++g) {
        alignas(16) std::uint32_t ks[16][kLanes];
        for (int i = 0; i < 16; ++i) {
            const Lanes out = x[g][i] + in[g][i];
            std::memcpy(ks[i], &out, sizeof(out));
        }
        for (std::size_t l = 0; l < kLanes; ++l)
            xorLane(jobs[g * kLanes + l], ks, l);
    }
}

} // namespace

void
ChaCha20::block(const Key256 &key, const Nonce96 &nonce,
                std::uint32_t counter, std::uint8_t out[blockBytes])
{
    std::memset(out, 0, blockBytes);
    xorStreams(key, &nonce, 1, counter, out, blockBytes);
}

void
ChaCha20::xorStream(const Key256 &key, const Nonce96 &nonce,
                    std::uint32_t counter, std::uint8_t *data,
                    std::size_t len)
{
    xorStreams(key, &nonce, 1, counter, data, len);
}

void
ChaCha20::xorStreams(const Key256 &key, const Nonce96 *nonces,
                     std::size_t n, std::uint32_t counter,
                     std::uint8_t *data, std::size_t len)
{
    std::uint32_t k[8];
    for (int i = 0; i < 8; ++i)
        k[i] = load32le(key.data() + 4 * i);

    // Flatten the batch into (message, block) jobs and run them
    // kStepBlocks at a time; a message's blocks may straddle steps.
    Job jobs[kStepBlocks];
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t *nonce = nonces[i].data();
        const std::uint32_t n0 = load32le(nonce);
        const std::uint32_t n1 = load32le(nonce + 4);
        const std::uint32_t n2 = load32le(nonce + 8);
        std::uint8_t *msg = data + i * len;
        std::uint32_t ctr = counter;
        for (std::size_t off = 0; off < len; off += blockBytes) {
            jobs[live++] = {{ctr++, n0, n1, n2}, msg + off,
                            std::min(blockBytes, len - off)};
            if (live == kStepBlocks) {
                runStep(k, jobs);
                live = 0;
            }
        }
    }
    if (live == 0)
        return;
    std::fill(jobs + live, jobs + kStepBlocks, Job{{}, nullptr, 0});
    runStep(k, jobs);
}

} // namespace laoram::crypto
