/**
 * @file
 * Unit tests for the slot encryptor (nonce/epoch management), and
 * byte-identity of its batched form against one RFC 8439 xorStream
 * per record.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "crypto/encryptor.hh"
#include "util/rng.hh"

namespace laoram::crypto {
namespace {

/** Seal @p data as the next write of @p slot (a batch of one). */
void
sealOne(Encryptor &enc, std::uint64_t slot,
        std::vector<std::uint8_t> &data)
{
    enc.encryptSlots(&slot, 1, data.data(), data.size());
}

/** Open @p data under @p slot's current epoch (a batch of one). */
void
openOne(const Encryptor &enc, std::uint64_t slot,
        std::vector<std::uint8_t> &data)
{
    enc.decryptSlots(&slot, 1, data.data(), data.size());
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t base)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(base + i);
    return v;
}

TEST(Encryptor, RoundTrip)
{
    Encryptor enc(Encryptor::deriveKey(1), 16);
    auto data = pattern(48, 3);
    const auto original = data;
    sealOne(enc, 5, data);
    EXPECT_NE(data, original);
    openOne(enc, 5, data);
    EXPECT_EQ(data, original);
}

TEST(Encryptor, DifferentSlotsDifferentCiphertext)
{
    Encryptor enc(Encryptor::deriveKey(1), 16);
    auto a = pattern(32, 0);
    auto b = pattern(32, 0);
    sealOne(enc, 0, a);
    sealOne(enc, 1, b);
    EXPECT_NE(a, b) << "identical plaintexts in different slots must "
                       "not share ciphertext";
}

TEST(Encryptor, RewriteChangesCiphertext)
{
    // Writing the same plaintext twice into the same slot must yield
    // different ciphertext (fresh epoch => fresh nonce), or rewrites
    // would leak "content unchanged".
    Encryptor enc(Encryptor::deriveKey(2), 4);
    auto first = pattern(32, 9);
    auto second = pattern(32, 9);
    sealOne(enc, 2, first);
    sealOne(enc, 2, second);
    EXPECT_NE(first, second);
    // Only the latest epoch decrypts correctly.
    openOne(enc, 2, second);
    EXPECT_EQ(second, pattern(32, 9));
}

TEST(Encryptor, DisabledIsPassThrough)
{
    Encryptor enc = Encryptor::makeDisabled();
    EXPECT_FALSE(enc.enabled());
    auto data = pattern(16, 1);
    const auto original = data;
    sealOne(enc, 0, data);
    EXPECT_EQ(data, original);
    openOne(enc, 0, data);
    EXPECT_EQ(data, original);
}

TEST(Encryptor, DeriveKeyDeterministic)
{
    EXPECT_EQ(Encryptor::deriveKey(77), Encryptor::deriveKey(77));
    EXPECT_NE(Encryptor::deriveKey(77), Encryptor::deriveKey(78));
}

TEST(Encryptor, KeySeparation)
{
    Encryptor e1(Encryptor::deriveKey(1), 4);
    Encryptor e2(Encryptor::deriveKey(2), 4);
    auto a = pattern(32, 5);
    auto b = pattern(32, 5);
    sealOne(e1, 0, a);
    sealOne(e2, 0, b);
    EXPECT_NE(a, b);
}

/** The documented nonce layout: slot (8 B LE) || epoch (4 B LE). */
Nonce96
slotNonce(std::uint64_t slot, std::uint32_t epoch)
{
    Nonce96 nonce{};
    for (int i = 0; i < 8; ++i)
        nonce[i] = static_cast<std::uint8_t>(slot >> (8 * i));
    for (int i = 0; i < 4; ++i)
        nonce[8 + i] = static_cast<std::uint8_t>(epoch >> (8 * i));
    return nonce;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, Rng &rng)
{
    std::vector<std::uint8_t> v(n);
    for (std::uint8_t &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

/**
 * Seal a batch of @p n records of @p len bytes over @p slots and
 * check every record against xorStream under the nonce a serial
 * writer would use, then open the batch back to the plaintext.
 */
void
expectBatchMatchesSerial(const std::vector<std::uint64_t> &slots,
                         std::size_t len, std::uint64_t seed)
{
    constexpr std::uint64_t kSlots = 64;
    const Key256 key = Encryptor::deriveKey(seed);
    Encryptor enc(key, kSlots);
    Rng rng(seed);
    // Start from uneven epochs so the epoch bytes of the nonce vary.
    std::vector<std::uint32_t> epochs(kSlots);
    for (std::uint32_t &e : epochs)
        e = static_cast<std::uint32_t>(rng.nextBounded(1000));
    enc.restoreEpochs(epochs.data(), epochs.size());

    const std::size_t n = slots.size();
    const std::vector<std::uint8_t> plain = randomBytes(n * len, rng);
    std::vector<std::uint8_t> batch = plain;
    enc.encryptSlots(slots.data(), n, batch.data(), len);

    std::vector<std::uint8_t> serial = plain;
    for (std::size_t i = 0; i < n; ++i)
        ChaCha20::xorStream(key, slotNonce(slots[i], ++epochs[slots[i]]),
                            0, serial.data() + i * len, len);
    EXPECT_EQ(batch, serial) << "n=" << n << " len=" << len;
    EXPECT_EQ(std::vector<std::uint32_t>(
                  enc.epochData(), enc.epochData() + enc.epochCount()),
              epochs);

    // Open the batch: a slot sealed twice opens under its last epoch
    // only, so compare with the serial open of the same ciphertext,
    // and each slot's last record must come back as its plaintext.
    std::vector<std::uint8_t> opened = batch;
    enc.decryptSlots(slots.data(), n, opened.data(), len);
    for (std::size_t i = 0; i < n; ++i)
        ChaCha20::xorStream(key, slotNonce(slots[i], epochs[slots[i]]),
                            0, serial.data() + i * len, len);
    EXPECT_EQ(opened, serial) << "n=" << n << " len=" << len;
    for (std::size_t i = 0; i < n; ++i) {
        if (std::find(slots.begin() + i + 1, slots.end(), slots[i])
            != slots.end())
            continue; // overwritten later in the batch
        EXPECT_TRUE(std::equal(opened.begin() + i * len,
                               opened.begin() + (i + 1) * len,
                               plain.begin() + i * len))
            << "record " << i << " n=" << n << " len=" << len;
    }
}

TEST(EncryptorBatch, MatchesPerRecordXorStream)
{
    for (std::size_t n : {0, 1, 2, 3, 7, 8, 9, 33}) {
        std::vector<std::uint64_t> slots;
        for (std::size_t i = 0; i < n; ++i)
            slots.push_back((i * 5 + 3) % 64); // distinct for n <= 64
        for (std::size_t len : {0, 1, 16, 63, 64, 65, 80, 128, 200})
            expectBatchMatchesSerial(slots, len, 10 * n + len);
    }
}

TEST(EncryptorBatch, DuplicateSlotsSealAsSerialWrites)
{
    // Slot 3 three times, 7 twice: each write takes the next epoch in
    // op order, exactly as single-slot calls would.
    const std::vector<std::uint64_t> slots = {3, 7, 3, 3, 9, 7, 0, 3,
                                              63};
    for (std::size_t len : {1, 64, 80, 130})
        expectBatchMatchesSerial(slots, len, len);
}

} // namespace
} // namespace laoram::crypto
