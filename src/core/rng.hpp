// Implementation-independent random primitives.
//
// The determinism contract (traces, golden costs, arrival schedules are
// bit-identical across toolchains) forbids std::*_distribution: the
// standard specifies the distributions' statistics but not their
// algorithms, so libstdc++ and libc++ produce different sequences from the
// same engine. Everything that must replay bit-identically derives its
// variates from raw mt19937_64 words through the helpers below instead.
#pragma once

#include <cstdint>
#include <random>

namespace san {

/// Uniform double in (0, 1], built from the top 53 bits of a raw RNG word.
/// The +1 keeps 0 out of the range, making -log(u) finite.
inline double uniform_open(std::mt19937_64& rng) {
  return (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
}

/// splitmix64 finalizer: a fixed 64-bit mix used as a seeded stateless
/// hash (shard scattering). Never change the constants — checked-in
/// partitions depend on them.
inline std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace san
