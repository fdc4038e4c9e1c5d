#ifndef RLCUT_COMMON_RANDOM_H_
#define RLCUT_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace rlcut {

/// Deterministic, fast PRNG (xoshiro256**). All stochastic components of
/// the library (generators, samplers, learning automata) take an explicit
/// Rng so experiments are reproducible from a single seed.
class Rng {
 public:
  /// Seeds the four-word state via SplitMix64 expansion of `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). `bound` must be positive.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Samples an index from an (unnormalized) non-negative weight vector.
  /// Falls back to uniform if all weights are zero.
  size_t SampleDiscrete(const std::vector<double>& weights);

  /// Approximate Zipf(s) sample over {0, ..., n-1} using inverse-CDF on a
  /// precomputed table is avoided; this uses rejection-inversion
  /// (Hörmann 1996 style simplified), adequate for generator workloads.
  uint64_t Zipf(uint64_t n, double s);

  /// Raw generator state, for checkpoint/resume: restoring a saved state
  /// continues the exact output sequence. Must not be all zeros.
  std::array<uint64_t, 4> State() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void SetState(const std::array<uint64_t, 4>& state) {
    RLCUT_CHECK((state[0] | state[1] | state[2] | state[3]) != 0);
    for (size_t i = 0; i < 4; ++i) s_[i] = state[i];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = UniformInt(i + 1);
      std::swap(v[i], v[j]);
    }
  }

 private:
  uint64_t s_[4];
};

/// SplitMix64 step, exposed for deterministic hashing needs (e.g., hash
/// partitioners that must agree across runs, fault-injection decisions
/// and retry jitter). Inline, so layers below rlcut_common use it too.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stateless 64-bit mix hash suitable for partition-by-hash.
inline uint64_t HashU64(uint64_t x) { return SplitMix64(x); }

}  // namespace rlcut

#endif  // RLCUT_COMMON_RANDOM_H_
