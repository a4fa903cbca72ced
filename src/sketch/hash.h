// Hash family used by the hash-calculation module (H), the sketches, and
// ECMP path selection.  Programmable switches expose a small set of CRC
// polynomials plus per-instance seeds; we model that as a seeded family of
// deterministic 32-bit hashes.
#pragma once

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

// Hash a span of 32-bit words (multi-field operation keys).
uint32_t hash_words(HashAlgo algo, uint32_t seed,
                    std::span<const uint32_t> words);

// Multi-lane batched hashing (the compiled executors' H ops).  For
// each lane l in [0, lanes) computes
//
//     out[l] = hash_words(algo, seed, masked(base + l*stride_words))
//
// where masked(p) is the nwords-long key {p[0] & masks[0], ...}; masks ==
// nullptr hashes the words unmasked.  Bit-identical to calling hash_words
// on each lane's masked key.  `stride_words` lets the lanes live either in
// contiguous SoA key rows (stride == nwords) or strided inside an array of
// larger records (e.g. the staged keys of a run of PHVs).  The CRC paths interleave four
// independent lanes so the per-word table-lookup chains overlap in the
// load ports instead of serializing — single-lane CRC is latency-bound,
// not throughput-bound.
void hash_words_lanes(HashAlgo algo, uint32_t seed, const uint32_t* base,
                      std::size_t nwords, std::size_t stride_words,
                      std::size_t lanes, const uint32_t* masks,
                      uint32_t* out);

}  // namespace newton
