#ifndef DOMD_COMMON_HASH_H_
#define DOMD_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace domd {

/// 64-bit FNV-1a parameters (Fowler/Noll/Vo). Every FNV-style digest in the
/// tree takes its constants from here.
inline constexpr std::uint64_t kFnv1aOffset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ull;

/// FNV-1a 64 over `bytes`, starting from `seed`. Passing a previous result
/// as `seed` continues the digest, so Fnv1a64(b, Fnv1a64(a)) equals
/// Fnv1a64(a + b).
constexpr std::uint64_t Fnv1a64(std::string_view bytes,
                                std::uint64_t seed = kFnv1aOffset) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014): a
/// bijective 64-bit avalanche. Seeds the Rng streams and finishes every
/// dataset-fingerprint row hash.
constexpr std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace domd

#endif  // DOMD_COMMON_HASH_H_
