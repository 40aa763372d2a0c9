#include "src/common/fmt.h"

#include <array>
#include <cassert>
#include <cmath>

#include <charconv>
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#define PDPA_FMT_HAVE_TO_CHARS 1
#endif

#if !defined(PDPA_FMT_HAVE_TO_CHARS)
#include <cstdio>
#endif

namespace pdpa {
namespace {

// Worst case across all four formats: "%.17f" of -DBL_MAX is 1 (sign) +
// 309 (integer digits) + 1 (point) + 17 (fraction) = 328 chars. 352 gives
// headroom without mattering for a stack buffer.
constexpr int kMaxNumberChars = 352;

// 10^p for p in [0, 17]; every entry is exact in a double.
constexpr std::array<double, 18> kPow10 = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,
                                           1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17};

}  // namespace

#if defined(PDPA_FMT_HAVE_TO_CHARS)

void AppendInt(std::string* out, long long value) {
  char buf[kMaxNumberChars];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  assert(res.ec == std::errc());
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

void AppendUint(std::string* out, unsigned long long value) {
  char buf[kMaxNumberChars];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  assert(res.ec == std::errc());
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

namespace {

// AppendGeneral without its integral fast path.
void AppendGeneralFormatted(std::string* out, double value, int precision) {
  char buf[kMaxNumberChars];
  auto res = std::to_chars(buf, buf + sizeof(buf), value,
                           std::chars_format::general, precision);
  assert(res.ec == std::errc());
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

}  // namespace

void AppendFixed(std::string* out, double value, int precision) {
  assert(precision >= 0 && precision <= 17);
  char buf[kMaxNumberChars];
  auto res = std::to_chars(buf, buf + sizeof(buf), value,
                           std::chars_format::fixed, precision);
  assert(res.ec == std::errc());
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

#else  // snprintf fallback: same bytes, one formatted stack write, no heap.

void AppendInt(std::string* out, long long value) {
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%lld", value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

void AppendUint(std::string* out, unsigned long long value) {
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%llu", value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

namespace {

// AppendGeneral without its integral fast path.
void AppendGeneralFormatted(std::string* out, double value, int precision) {
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

void AppendFixed(std::string* out, double value, int precision) {
  assert(precision >= 0 && precision <= 17);
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

#endif  // PDPA_FMT_HAVE_TO_CHARS

void AppendGeneral(std::string* out, double value, int precision) {
  assert(precision >= 1 && precision <= 17);
  if (std::fabs(value) < kPow10[static_cast<std::size_t>(precision)]) {
    // Exact integral test; -0.0 (whole 0, sign set) prints "-0" below.
    const auto whole = static_cast<long long>(value);
    if (static_cast<double>(whole) == value && (whole != 0 || !std::signbit(value))) {
      AppendInt(out, whole);
      return;
    }
  }
  AppendGeneralFormatted(out, value, precision);
}

void AppendMicrosAsSeconds(std::string* out, SimTime micros) {
  constexpr SimTime kExactLimit = SimTime{1} << 52;
  if (micros < 0 || micros >= kExactLimit) {
    AppendFixed(out, TimeToSeconds(micros), 6);
    return;
  }
  AppendInt(out, micros / kSecond);
  char frac[7] = {'.', '0', '0', '0', '0', '0', '0'};
  for (SimTime rest = micros % kSecond, i = 6; rest > 0; rest /= 10, --i) {
    frac[i] = static_cast<char>('0' + rest % 10);
  }
  out->append(frac, sizeof(frac));
}

}  // namespace pdpa
