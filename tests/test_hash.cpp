// Hash-family unit tests: known-answer vectors for the CRC polynomials,
// slicing-by-4 pinned against the byte-at-a-time reference, and the
// per-key kernel (hash_key, the compiled executor's H ops) pinned against
// the chained hash_words.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "sketch/hash.h"

namespace newton {
namespace {

// The canonical CRC check string.
constexpr uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};

TEST(HashKat, Crc32CheckValue) {
  // CRC-32/ISO-HDLC check value for "123456789".
  EXPECT_EQ(hash_bytes(HashAlgo::Crc32, 0, kCheck), 0xCBF43926u);
}

TEST(HashKat, Crc32cCheckValue) {
  // CRC-32C (Castagnoli) check value for "123456789".
  EXPECT_EQ(hash_bytes(HashAlgo::Crc32c, 0, kCheck), 0xE3069283u);
}

TEST(HashKat, EmptyInputIsSeedIdentity) {
  // CRC of zero bytes is ~~seed = seed for any polynomial.
  EXPECT_EQ(hash_bytes(HashAlgo::Crc32, 0, {}), 0u);
  EXPECT_EQ(hash_bytes(HashAlgo::Crc32, 0xdeadbeefu, {}), 0xdeadbeefu);
  EXPECT_EQ(hash_bytes(HashAlgo::Crc32c, 0x12345678u, {}), 0x12345678u);
}

// Slicing-by-4 (hash_u32's word tables) must be bit-identical to feeding
// the same word through the byte-at-a-time table as 4 LE bytes.
TEST(HashSlicing, WordPathMatchesBytePath) {
  const uint32_t words[] = {0u,          1u,          0xffffffffu,
                            0xCBF43926u, 0x01020304u, 0x5bd1e995u,
                            0x80000000u, 0x31415926u};
  const uint32_t seeds[] = {0u, 1u, 0xffffffffu, 0x9E3779B9u};
  for (HashAlgo algo : {HashAlgo::Crc32, HashAlgo::Crc32c}) {
    for (uint32_t seed : seeds) {
      for (uint32_t w : words) {
        const std::array<uint8_t, 4> bytes{
            static_cast<uint8_t>(w), static_cast<uint8_t>(w >> 8),
            static_cast<uint8_t>(w >> 16), static_cast<uint8_t>(w >> 24)};
        EXPECT_EQ(hash_u32(algo, seed, w), hash_bytes(algo, seed, bytes))
            << "algo=" << static_cast<int>(algo) << " seed=" << seed
            << " w=" << w;
      }
    }
  }
}

// Raw CRC is affine over GF(2) — two seeds give XOR-shifted copies of the
// same function — which is why hash_words (the H module's entry point)
// adds a seed-keyed multiplicative finalizer.  Pin both halves: hash_u32
// (raw CRC, no finalizer) IS affine in the seed, and hash_words is not.
TEST(HashSlicing, SeedsDecorrelate) {
  int raw_equal = 0, finalized_equal = 0;
  const uint32_t r0 = hash_u32(HashAlgo::Crc32, 1, 0);
  const uint32_t r1 = hash_u32(HashAlgo::Crc32, 2, 0);
  const std::array<uint32_t, 1> zero{0};
  const uint32_t f0 = hash_words(HashAlgo::Crc32, 1, zero);
  const uint32_t f1 = hash_words(HashAlgo::Crc32, 2, zero);
  for (uint32_t v = 1; v < 64; ++v) {
    if ((hash_u32(HashAlgo::Crc32, 1, v) ^ r0) ==
        (hash_u32(HashAlgo::Crc32, 2, v) ^ r1))
      ++raw_equal;
    const std::array<uint32_t, 1> w{v};
    if ((hash_words(HashAlgo::Crc32, 1, w) ^ f0) ==
        (hash_words(HashAlgo::Crc32, 2, w) ^ f1))
      ++finalized_equal;
  }
  EXPECT_EQ(raw_equal, 63);      // affinity of the bare CRC
  EXPECT_LT(finalized_equal, 4); // broken by words_finalize
}

// deterministic pseudo-random words for key fixtures
uint32_t mix(uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

// The suite keeps the name of the multi-lane path hash_key replaced.
class HashLanes : public ::testing::TestWithParam<HashAlgo> {};

// hash_key must equal hash_words on every kKeyWords-word key whose words
// outside `cared` are zero: all 512 cared-word subsets, each with random
// seeds and random values in the cared words (some of them zero, as a
// masked field can be).  Mix64 and Identity take the hash_words fallback.
TEST_P(HashLanes, MatchesScalarPerLane) {
  const HashAlgo algo = GetParam();
  uint32_t r = 12345;
  const auto next = [&] { return r = mix(r + 0x9E3779B9u); };
  for (uint32_t cared = 0; cared < (1u << kKeyWords); ++cared) {
    for (int rep = 0; rep < 8; ++rep) {
      const uint32_t seed = rep == 0 ? 0 : next();
      std::array<uint32_t, kKeyWords> key{};
      for (std::size_t j = 0; j < kKeyWords; ++j)
        if (cared >> j & 1) key[j] = next() % 5 == 0 ? 0 : next();
      ASSERT_EQ(hash_key(algo, seed, key_hash_base(algo, seed), cared,
                         key.data()),
                hash_words(algo, seed, key))
          << "algo=" << static_cast<int>(algo) << " cared=" << cared
          << " seed=" << seed;
    }
  }
}

TEST_P(HashLanes, SeedVariesOutput) {
  const HashAlgo algo = GetParam();
  if (algo == HashAlgo::Identity) return;  // seed-free by definition
  std::array<uint32_t, kKeyWords> key{};
  for (std::size_t j = 0; j < key.size(); ++j)
    key[j] = mix(static_cast<uint32_t>(j) + 7u);
  const uint32_t all = (1u << kKeyWords) - 1;
  const uint32_t a = hash_key(algo, 1u, key_hash_base(algo, 1u), all,
                              key.data());
  const uint32_t b = hash_key(algo, 2u, key_hash_base(algo, 2u), all,
                              key.data());
  EXPECT_NE(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllAlgos, HashLanes,
                         ::testing::Values(HashAlgo::Crc32, HashAlgo::Crc32c,
                                           HashAlgo::Mix64,
                                           HashAlgo::Identity));

}  // namespace
}  // namespace newton
