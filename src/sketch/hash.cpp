#include "sketch/hash.h"

#include <array>

namespace newton {
namespace {

template <uint32_t Poly>
constexpr std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (Poly ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr auto kCrc32Table = make_crc_table<0xEDB88320u>();
constexpr auto kCrc32cTable = make_crc_table<0x82F63B78u>();

// Slicing-by-4 companion tables: T[0] is the byte table above, and
// T[k][i] advances T[k-1][i] by one zero byte, so a whole 32-bit word is
// absorbed with four independent lookups instead of four chained
// byte steps.  Bit-identical to the byte-at-a-time loop.
using CrcSlices = std::array<std::array<uint32_t, 256>, 4>;

template <uint32_t Poly>
constexpr CrcSlices make_crc_slices() {
  CrcSlices t{};
  t[0] = make_crc_table<Poly>();
  for (std::size_t k = 1; k < 4; ++k)
    for (uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kCrc32Slices = make_crc_slices<0xEDB88320u>();
constexpr auto kCrc32cSlices = make_crc_slices<0x82F63B78u>();

uint32_t crc(const std::array<uint32_t, 256>& table, uint32_t seed,
             std::span<const uint8_t> data) {
  uint32_t c = ~seed;
  for (uint8_t b : data) c = table[(c ^ b) & 0xff] ^ (c >> 8);
  return ~c;
}

// CRC of one little-endian 32-bit word: equals crc(table, seed, 4 LE bytes).
inline uint32_t crc_word(const CrcSlices& t, uint32_t seed, uint32_t word) {
  const uint32_t x = ~seed ^ word;
  return ~(t[3][x & 0xff] ^ t[2][(x >> 8) & 0xff] ^ t[1][(x >> 16) & 0xff] ^
           t[0][x >> 24]);
}

// hash_words' CRC chain before the finalizer.
uint32_t crc_chain(const CrcSlices& t, uint32_t seed,
                   std::span<const uint32_t> words) {
  uint32_t h = seed;
  for (uint32_t w : words) h = crc_word(t, h ^ 0x5bd1e995u, w);
  return h;
}

// A chain step is crc_word(h ^ k, w) = A(h) ^ T(w), with T the linear map
// T(x) = ~crc_word(~0, x) and A affine with linear part T.  So word j of a
// kKeyWords-word key passes through kKeyWords - j applications of T:
// L_j = T^(kKeyWords - j).
constexpr KeyTables make_key_tables(const CrcSlices& s) {
  const auto step = [&](uint32_t x) {
    return s[3][x & 0xff] ^ s[2][(x >> 8) & 0xff] ^ s[1][(x >> 16) & 0xff] ^
           s[0][x >> 24];
  };
  KeyTables t{};
  for (std::size_t b = 0; b < 4; ++b)
    for (uint32_t v = 0; v < 256; ++v) {
      uint32_t x = v << (8 * b);
      for (std::size_t j = kKeyWords; j-- > 0;) t[j][b][v] = x = step(x);
    }
  return t;
}

}  // namespace

uint32_t hash_bytes(HashAlgo algo, uint32_t seed,
                    std::span<const uint8_t> data) {
  switch (algo) {
    case HashAlgo::Crc32:
      return crc(kCrc32Table, seed, data);
    case HashAlgo::Crc32c:
      return crc(kCrc32cTable, seed, data);
    case HashAlgo::Mix64: {
      uint64_t h = seed;
      for (uint8_t b : data) h = splitmix64(h ^ b);
      return static_cast<uint32_t>(h ^ (h >> 32));
    }
    case HashAlgo::Identity: {
      uint32_t v = 0;
      const std::size_t n = data.size() < 4 ? data.size() : 4;
      for (std::size_t i = 0; i < n; ++i) v |= uint32_t{data[i]} << (8 * i);
      return v;
    }
  }
  return 0;
}

uint32_t hash_u32(HashAlgo algo, uint32_t seed, uint32_t value) {
  switch (algo) {
    case HashAlgo::Identity:
      return value;
    case HashAlgo::Crc32:
      return crc_word(kCrc32Slices, seed, value);
    case HashAlgo::Crc32c:
      return crc_word(kCrc32cSlices, seed, value);
    case HashAlgo::Mix64:
      break;
  }
  std::array<uint8_t, 4> bytes{
      static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8),
      static_cast<uint8_t>(value >> 16), static_cast<uint8_t>(value >> 24)};
  return hash_bytes(algo, seed, bytes);
}

uint32_t hash_words(HashAlgo algo, uint32_t seed,
                    std::span<const uint32_t> words) {
  if (algo == HashAlgo::Identity)
    return words.empty() ? 0 : words.front();
  uint32_t h = seed;
  switch (algo) {
    case HashAlgo::Crc32:
      h = crc_chain(kCrc32Slices, seed, words);
      break;
    case HashAlgo::Crc32c:
      h = crc_chain(kCrc32cSlices, seed, words);
      break;
    default:
      for (uint32_t w : words) h = hash_u32(algo, h ^ 0x5bd1e995u, w);
      break;
  }
  // CRC is affine over GF(2): two seeds yield XOR-shifted copies of the
  // same function, which would make sketch rows perfectly correlated (the
  // min over rows degenerates to one row).  Hardware uses a DIFFERENT
  // polynomial per row; we model that with a seed-keyed multiplicative
  // finalizer, which breaks the affinity.
  return words_finalize(h, seed);
}

constexpr KeyTables kCrc32KeyTables = make_key_tables(kCrc32Slices);
constexpr KeyTables kCrc32cKeyTables = make_key_tables(kCrc32cSlices);

uint32_t key_hash_base(HashAlgo algo, uint32_t seed) {
  constexpr std::array<uint32_t, kKeyWords> zero{};
  switch (algo) {
    case HashAlgo::Crc32:
      return crc_chain(kCrc32Slices, seed, zero);
    case HashAlgo::Crc32c:
      return crc_chain(kCrc32cSlices, seed, zero);
    default:
      return 0;
  }
}

}  // namespace newton
