// Deterministic 64-bit generator (xorshift*) shared by the serialization
// tests: their corpora and golden inputs must be identical on every run,
// everywhere, so no std::random_device or seed variation.
#ifndef TESTS_DETERMINISTIC_BITS_H_
#define TESTS_DETERMINISTIC_BITS_H_

#include <cstdint>

namespace pdpa {

class DeterministicBits {
 public:
  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

 private:
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

}  // namespace pdpa

#endif  // TESTS_DETERMINISTIC_BITS_H_
