#include "src/common/rng.h"

#include <cmath>

#include "src/common/logging.h"

namespace pdpa {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

int Rng::UniformInt(int lo, int hi) {
  PDPA_CHECK_LE(lo, hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(NextU64() % span);
}

double Rng::Gaussian(double mean, double stddev) {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return mean + stddev * spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double z0 = mag * std::cos(2.0 * M_PI * u2);
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_gaussian_ = true;
  return mean + stddev * z0;
}

double Rng::Exponential(double rate) {
  PDPA_CHECK_GT(rate, 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace pdpa
