#include "common/random.h"

#include <cmath>

namespace rlcut {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    sm = SplitMix64(sm);
    word = sm;
  }
  // Avoid the all-zero state xoshiro cannot leave.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  RLCUT_CHECK_GT(bound, 0u);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  RLCUT_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

size_t Rng::SampleDiscrete(const std::vector<double>& weights) {
  RLCUT_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    RLCUT_CHECK_GE(w, 0.0);
    total += w;
  }
  if (total <= 0) return UniformInt(weights.size());
  double x = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0) return i;
  }
  return weights.size() - 1;
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  RLCUT_CHECK_GT(n, 0u);
  if (n == 1) return 0;
  // Inverse-CDF approximation via the continuous Zipf envelope
  // H(x) = (x^{1-s} - 1) / (1 - s); exact enough for synthetic workloads.
  if (s == 1.0) s = 1.0000001;
  const double one_minus_s = 1.0 - s;
  const double h_n = (std::pow(static_cast<double>(n) + 0.5, one_minus_s) -
                      std::pow(0.5, one_minus_s)) /
                     one_minus_s;
  while (true) {
    double u = UniformDouble();
    double x = std::pow(u * h_n * one_minus_s + std::pow(0.5, one_minus_s),
                        1.0 / one_minus_s);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k >= 1 && k <= n) return k - 1;
  }
}

}  // namespace rlcut
