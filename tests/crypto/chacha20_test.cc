/**
 * @file
 * ChaCha20 validated against the RFC 8439 reference vectors, through
 * the dispatched entry point and through every compiled kernel width
 * the CPU runs.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/chacha20.hh"
#include "util/rng.hh"

namespace laoram::crypto {
namespace {

Key256
rfcKey()
{
    // 00 01 02 ... 1f
    Key256 key{};
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i);
    return key;
}

/** One 64-byte keystream block: the XOR of a zero block. */
void
keystreamBlock(const Key256 &key, const Nonce96 &nonce,
               std::uint32_t counter, std::uint8_t out[64])
{
    std::memset(out, 0, 64);
    ChaCha20::xorStreams(key, &nonce, 1, counter, out, 64);
}

/** XOR one message with its keystream (a batch of one). */
void
xorOne(const Key256 &key, const Nonce96 &nonce, std::uint32_t counter,
       std::uint8_t *data, std::size_t len)
{
    ChaCha20::xorStreams(key, &nonce, 1, counter, data, len);
}

const char *const kRfcPlaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you "
    "only one tip for the future, sunscreen would be it.";

/** RFC 8439 §2.4.2 ciphertext of kRfcPlaintext. */
const std::uint8_t kRfcCiphertext[114] = {
    0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba,
    0x07, 0x28, 0xdd, 0x0d, 0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec,
    0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc, 0xfd, 0x9f,
    0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab,
    0x8f, 0x59, 0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39,
    0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab, 0x8f, 0x53, 0x0c, 0x35,
    0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
    0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e,
    0x52, 0xbc, 0x51, 0x4d, 0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c,
    0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9, 0x0b, 0xbf,
    0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78,
    0x5e, 0x42, 0x87, 0x4d,
};

/** RFC 8439 §2.4.2 nonce 000000000000004a00000000 (counter 1). */
Nonce96
rfcNonce()
{
    Nonce96 nonce{};
    nonce[7] = 0x4a;
    return nonce;
}

TEST(ChaCha20, Rfc8439BlockVector)
{
    // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000,
    // counter 1.
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    nonce[3] = 0x09;
    nonce[7] = 0x4a;

    std::uint8_t out[64];
    keystreamBlock(key, nonce, 1, out);

    static const std::uint8_t expected[64] = {
        0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15,
        0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20, 0x71, 0xc4,
        0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03,
        0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e,
        0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09,
        0x14, 0xc2, 0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2,
        0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
        0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
    };
    EXPECT_EQ(std::memcmp(out, expected, 64), 0);
}

TEST(ChaCha20, Rfc8439EncryptionVector)
{
    // RFC 8439 §2.4.2: the "Ladies and Gentlemen..." plaintext with
    // nonce 000000000000004a00000000 and counter 1.
    std::vector<std::uint8_t> buf(
        reinterpret_cast<const std::uint8_t *>(kRfcPlaintext),
        reinterpret_cast<const std::uint8_t *>(kRfcPlaintext)
            + std::strlen(kRfcPlaintext));
    ASSERT_EQ(buf.size(), sizeof(kRfcCiphertext));

    xorOne(rfcKey(), rfcNonce(), 1, buf.data(), buf.size());
    EXPECT_EQ(std::memcmp(buf.data(), kRfcCiphertext, buf.size()), 0);
}

TEST(ChaCha20, XorStreamRoundTrips)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    nonce[0] = 0x42;
    std::vector<std::uint8_t> data(333);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const std::vector<std::uint8_t> original = data;

    xorOne(key, nonce, 0, data.data(), data.size());
    EXPECT_NE(data, original);
    xorOne(key, nonce, 0, data.data(), data.size());
    EXPECT_EQ(data, original);
}

TEST(ChaCha20, DifferentNoncesDiverge)
{
    const Key256 key = rfcKey();
    Nonce96 n1{}, n2{};
    n2[11] = 1;
    std::uint8_t a[64], b[64];
    keystreamBlock(key, n1, 0, a);
    keystreamBlock(key, n2, 0, b);
    EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(ChaCha20, DifferentCountersDiverge)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    std::uint8_t a[64], b[64];
    keystreamBlock(key, nonce, 0, a);
    keystreamBlock(key, nonce, 1, b);
    EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(ChaCha20, PartialBlockLengths)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    for (std::size_t len : {0UL, 1UL, 63UL, 64UL, 65UL, 128UL, 200UL}) {
        std::vector<std::uint8_t> data(len, 0xAB);
        const auto original = data;
        xorOne(key, nonce, 5, data.data(), data.size());
        xorOne(key, nonce, 5, data.data(), data.size());
        EXPECT_EQ(data, original) << "len=" << len;
    }
}

/**
 * RFC 8439 §2.4.2 as record k of a batch of maxStepBlocks + 2 records,
 * for every k, through @p xorStreams. Each 178-B record spans three
 * keystream blocks, so record k starts at block 3k of the batch; 3 is
 * coprime to every step width, so k = 0..maxStepBlocks + 1 starts the
 * RFC record at every lane position, and the batch's 54 blocks end
 * in a part-full step on every width. Every record must also match
 * its own single-message xorStreams on the production kernel.
 */
void
expectRfcVectorInEveryLane(ChaCha20::XorStreamsFn xorStreams)
{
    const Key256 key = rfcKey();
    constexpr std::size_t kRecords = ChaCha20::maxStepBlocks + 2;
    constexpr std::size_t kLen = 178;
    const std::size_t textLen = std::strlen(kRfcPlaintext);
    ASSERT_EQ(textLen, sizeof(kRfcCiphertext));
    for (std::size_t k = 0; k < kRecords; ++k) {
        std::vector<Nonce96> nonces(kRecords);
        std::vector<std::uint8_t> data(kRecords * kLen);
        for (std::size_t i = 0; i < kRecords; ++i) {
            nonces[i][0] = static_cast<std::uint8_t>(i + 1);
            nonces[i][11] = static_cast<std::uint8_t>(k);
        }
        for (std::size_t b = 0; b < data.size(); ++b)
            data[b] = static_cast<std::uint8_t>(b * 13 + k);
        nonces[k] = rfcNonce();
        std::memcpy(data.data() + k * kLen, kRfcPlaintext, textLen);
        std::vector<std::uint8_t> serial = data;

        xorStreams(key, nonces.data(), kRecords, 1, data.data(), kLen);
        EXPECT_EQ(std::memcmp(data.data() + k * kLen, kRfcCiphertext,
                              textLen),
                  0)
            << "RFC record at position " << k;
        for (std::size_t i = 0; i < kRecords; ++i)
            xorOne(key, nonces[i], 1, serial.data() + i * kLen, kLen);
        EXPECT_EQ(data, serial) << "RFC record at position " << k;
    }
}

TEST(ChaCha20, Rfc8439EncryptionVectorInEveryLane)
{
    expectRfcVectorInEveryLane(ChaCha20::xorStreams);
}

TEST(ChaCha20, KernelTableRunsWidestFirstDownToBaseline)
{
    // Production dispatch takes the first supported entry, so the
    // table must be widest first and end in a kernel every CPU runs.
    const auto &kernels = ChaCha20::kernels();
    for (std::size_t i = 1; i < kernels.size(); ++i)
        EXPECT_GT(kernels[i - 1].lanes, kernels[i].lanes);
    EXPECT_EQ(kernels.back().lanes, 4u);
    EXPECT_TRUE(kernels.back().supported);
    for (const auto &k : kernels) {
        EXPECT_EQ(ChaCha20::maxStepBlocks % k.lanes, 0u) << k.lanes;
        if (k.supported) {
            EXPECT_NE(k.xorStreams, nullptr) << k.lanes;
        }
    }
}

/** Each test runs one kernel width, skipped where the CPU lacks it. */
class ChaCha20Kernels : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void SetUp() override
    {
        for (const auto &k : ChaCha20::kernels())
            if (k.lanes == GetParam())
                kernel = &k;
        ASSERT_NE(kernel, nullptr) << GetParam() << " lanes not listed";
        if (!kernel->supported)
            GTEST_SKIP() << "this CPU lacks " << kernel->isa << " for the "
                         << kernel->lanes << "-lane kernel";
    }

    const ChaCha20::Kernel *kernel = nullptr;
};

TEST_P(ChaCha20Kernels, Rfc8439VectorAtEveryLanePosition)
{
    expectRfcVectorInEveryLane(kernel->xorStreams);
}

TEST_P(ChaCha20Kernels, BatchShapesMatchFourLaneKernelPerMessage)
{
    // The EncryptorBatch shape grid: every batch must equal the
    // baseline kernel run one message at a time.
    const auto fourLanes = ChaCha20::kernels().back().xorStreams;
    Rng rng(GetParam());
    for (std::size_t n : {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33}) {
        for (std::size_t len : {0, 1, 16, 63, 64, 65, 80, 128, 200}) {
            Key256 key{};
            for (std::uint8_t &b : key)
                b = static_cast<std::uint8_t>(rng.next());
            std::vector<Nonce96> nonces(n);
            for (Nonce96 &nonce : nonces)
                for (std::uint8_t &b : nonce)
                    b = static_cast<std::uint8_t>(rng.next());
            std::vector<std::uint8_t> batch(n * len);
            for (std::uint8_t &b : batch)
                b = static_cast<std::uint8_t>(rng.next());
            std::vector<std::uint8_t> serial = batch;

            kernel->xorStreams(key, nonces.data(), n, 7, batch.data(),
                               len);
            for (std::size_t i = 0; i < n; ++i)
                fourLanes(key, &nonces[i], 1, 7, serial.data() + i * len,
                          len);
            EXPECT_EQ(batch, serial) << "n=" << n << " len=" << len;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ChaCha20Kernels, ::testing::Values(16, 8, 4),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return "lanes" + std::to_string(info.param);
    });

} // namespace
} // namespace laoram::crypto
