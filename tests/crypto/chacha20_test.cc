/**
 * @file
 * ChaCha20 validated against the RFC 8439 reference vectors.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/chacha20.hh"

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

TEST(ChaCha20, Rfc8439BlockVector)
{
    // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000,
    // counter 1.
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    nonce[3] = 0x09;
    nonce[7] = 0x4a;

    std::uint8_t out[64];
    ChaCha20::block(key, nonce, 1, out);

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
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    nonce[7] = 0x4a;

    const char *plaintext =
        "Ladies and Gentlemen of the class of '99: If I could offer you "
        "only one tip for the future, sunscreen would be it.";
    std::vector<std::uint8_t> buf(
        reinterpret_cast<const std::uint8_t *>(plaintext),
        reinterpret_cast<const std::uint8_t *>(plaintext)
            + std::strlen(plaintext));

    ChaCha20::xorStream(key, nonce, 1, buf.data(), buf.size());

    static const std::uint8_t expected_head[16] = {
        0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80,
        0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d, 0x69, 0x81,
    };
    ASSERT_GE(buf.size(), 16u);
    EXPECT_EQ(std::memcmp(buf.data(), expected_head, 16), 0);
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

    ChaCha20::xorStream(key, nonce, 0, data.data(), data.size());
    EXPECT_NE(data, original);
    ChaCha20::xorStream(key, nonce, 0, data.data(), data.size());
    EXPECT_EQ(data, original);
}

TEST(ChaCha20, DifferentNoncesDiverge)
{
    const Key256 key = rfcKey();
    Nonce96 n1{}, n2{};
    n2[11] = 1;
    std::uint8_t a[64], b[64];
    ChaCha20::block(key, n1, 0, a);
    ChaCha20::block(key, n2, 0, b);
    EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(ChaCha20, DifferentCountersDiverge)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    std::uint8_t a[64], b[64];
    ChaCha20::block(key, nonce, 0, a);
    ChaCha20::block(key, nonce, 1, b);
    EXPECT_NE(std::memcmp(a, b, 64), 0);
}

TEST(ChaCha20, PartialBlockLengths)
{
    const Key256 key = rfcKey();
    Nonce96 nonce{};
    for (std::size_t len : {0UL, 1UL, 63UL, 64UL, 65UL, 128UL, 200UL}) {
        std::vector<std::uint8_t> data(len, 0xAB);
        const auto original = data;
        ChaCha20::xorStream(key, nonce, 5, data.data(), data.size());
        ChaCha20::xorStream(key, nonce, 5, data.data(), data.size());
        EXPECT_EQ(data, original) << "len=" << len;
    }
}

TEST(ChaCha20, Rfc8439EncryptionVectorInEveryLane)
{
    // RFC 8439 §2.4.2 again, as record k of a 9-record batch. Each
    // 178-B record spans three keystream blocks, so record k starts
    // at kernel lane 3k mod 8 and k = 0..7 covers every lane; the
    // batch's 27 blocks end in a part-full step. Every other record
    // must match its own single-message xorStream.
    const Key256 key = rfcKey();
    Nonce96 rfcNonce{};
    rfcNonce[7] = 0x4a;
    const std::string plaintext =
        "Ladies and Gentlemen of the class of '99: If I could offer you "
        "only one tip for the future, sunscreen would be it.";
    static const std::uint8_t expected[114] = {
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
    ASSERT_EQ(plaintext.size(), sizeof(expected));

    constexpr std::size_t kRecords = 9;
    constexpr std::size_t kLen = 178;
    for (std::size_t k = 0; k < kRecords; ++k) {
        std::vector<Nonce96> nonces(kRecords);
        std::vector<std::uint8_t> data(kRecords * kLen);
        for (std::size_t i = 0; i < kRecords; ++i) {
            nonces[i][0] = static_cast<std::uint8_t>(i + 1);
            nonces[i][11] = static_cast<std::uint8_t>(k);
        }
        for (std::size_t b = 0; b < data.size(); ++b)
            data[b] = static_cast<std::uint8_t>(b * 13 + k);
        nonces[k] = rfcNonce;
        std::memcpy(data.data() + k * kLen, plaintext.data(),
                    plaintext.size());
        std::vector<std::uint8_t> serial = data;

        ChaCha20::xorStreams(key, nonces.data(), kRecords, 1,
                             data.data(), kLen);
        EXPECT_EQ(std::memcmp(data.data() + k * kLen, expected,
                              sizeof(expected)),
                  0)
            << "RFC record at position " << k;
        for (std::size_t i = 0; i < kRecords; ++i)
            ChaCha20::xorStream(key, nonces[i], 1,
                                serial.data() + i * kLen, kLen);
        EXPECT_EQ(data, serial) << "RFC record at position " << k;
    }
}

} // namespace
} // namespace laoram::crypto
