// Hash family used by the hash-calculation module (H), the sketches, and
// ECMP path selection.  Programmable switches expose a small set of CRC
// polynomials plus per-instance seeds; we model that as a seeded family of
// deterministic 32-bit hashes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

namespace newton {

enum class HashAlgo : uint8_t {
  Crc32,     // table-driven CRC-32 (IEEE polynomial)
  Crc32c,    // CRC-32C (Castagnoli polynomial)
  Mix64,     // SplitMix64-style finalizer; models a generic hardware hash
  Identity,  // "direct" mode of H: pass the key value through
};

// Hash `data` with the given algorithm and seed.  Identity returns the first
// up-to-4 bytes interpreted little-endian (the direct mode of H operates on
// a single selected field).
uint32_t hash_bytes(HashAlgo algo, uint32_t seed,
                    std::span<const uint8_t> data);

// Hash a single 32-bit word (common case: one operation key).
uint32_t hash_u32(HashAlgo algo, uint32_t seed, uint32_t value);

// Hash a span of 32-bit words (multi-field operation keys).  For the CRC
// algorithms this chains one CRC word step per key word from `seed`, then
// applies words_finalize.  It is the definition every other key hash here
// is checked against.
uint32_t hash_words(HashAlgo algo, uint32_t seed,
                    std::span<const uint32_t> words);

// SplitMix64's output mixer (Mix64's per-byte step).
inline uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// hash_words' last step: a seed-keyed multiplicative finalizer over the
// chained value `h`, which breaks the CRC's affinity in the seed.
inline uint32_t words_finalize(uint32_t h, uint32_t seed) {
  const uint64_t x = splitmix64((uint64_t{h} << 32) ^
                                (seed * 0x9E3779B9ull + 0x7F4A7C15ull));
  return static_cast<uint32_t>(x ^ (x >> 32));
}

// ---- Hashing a key (the compiled executor's H ops) ----
//
// hash_words' CRC chain over a kKeyWords-word key is affine over GF(2) in
// the key words:
//
//     chain(seed, w) = C(seed) ^ L_0(w_0) ^ ... ^ L_8(w_8)
//
// C(seed) is the chain over the all-zero key (key_hash_base).  Each L_j is
// linear and independent of the seed, so L_j(0) = 0: a word that is zero
// contributes nothing, and the other words' terms are independent table
// lookups instead of one serial chain.  kCrc32KeyTables /
// kCrc32cKeyTables hold L_j sliced by byte, built at compile time:
// tables[j][b][v] = L_j(v << 8b).
inline constexpr std::size_t kKeyWords = 9;
using KeyTables =
    std::array<std::array<std::array<uint32_t, 256>, 4>, kKeyWords>;
extern const KeyTables kCrc32KeyTables;
extern const KeyTables kCrc32cKeyTables;

// C(seed) for the CRC algorithms (0 for the others, which hash_key does not
// read it for).
uint32_t key_hash_base(HashAlgo algo, uint32_t seed);

// Equals hash_words(algo, seed, {key, kKeyWords}) whenever every word of
// `key` outside the bit set `cared` (bit j = word j) is zero, given
// base = key_hash_base(algo, seed).  Mix64 and Identity hash the whole key
// through hash_words.
inline uint32_t hash_key(HashAlgo algo, uint32_t seed, uint32_t base,
                         uint32_t cared, const uint32_t* key) {
  if (algo != HashAlgo::Crc32 && algo != HashAlgo::Crc32c)
    return hash_words(algo, seed, std::span<const uint32_t>(key, kKeyWords));
  const KeyTables& t =
      algo == HashAlgo::Crc32 ? kCrc32KeyTables : kCrc32cKeyTables;
  uint32_t h = base;
  for (; cared != 0; cared &= cared - 1) {
    const int j = std::countr_zero(cared);
    const uint32_t w = key[j];
    h ^= t[j][0][w & 0xff] ^ t[j][1][(w >> 8) & 0xff] ^
         t[j][2][(w >> 16) & 0xff] ^ t[j][3][w >> 24];
  }
  return words_finalize(h, seed);
}

}  // namespace newton
