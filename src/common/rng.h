// Deterministic pseudo-random number generation.
//
// The simulator must be reproducible bit-for-bit across runs and platforms,
// so we implement a fixed algorithm (xoshiro256**, seeded via SplitMix64)
// instead of relying on std::mt19937 distributions whose exact output is
// implementation-defined for some distribution types.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

namespace pdpa {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform 64-bit value (xoshiro256**).
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): the 53 high bits of NextU64.
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int UniformInt(int lo, int hi);

  // Standard normal via Box-Muller (deterministic, no cached spare state
  // visible to callers beyond this object).
  double Gaussian(double mean, double stddev);

  // Exponential with the given rate (1/mean). Used for Poisson arrivals.
  double Exponential(double rate);

  // Creates an independent child stream; used to decorrelate subsystems that
  // draw in data-dependent order.
  Rng Fork();

  // Same state: both streams draw the same values from here on.
  bool operator==(const Rng&) const = default;

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace pdpa

#endif  // SRC_COMMON_RNG_H_
