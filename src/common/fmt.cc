#include "src/common/fmt.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

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

char* FormatInt(char* out, long long value) {
  auto res = std::to_chars(out, out + kMaxFormattedChars, value);
  assert(res.ec == std::errc());
  return res.ptr;
}

void AppendUint(std::string* out, unsigned long long value) {
  char buf[kMaxNumberChars];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  assert(res.ec == std::errc());
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

namespace {

// FormatGeneral without its integral fast path. "%.17g" is at most 24
// chars: sign, 17 digits, point and a five-char exponent.
char* FormatGeneralFormatted(char* out, double value, int precision) {
  auto res = std::to_chars(out, out + kMaxFormattedChars, value, std::chars_format::general,
                           precision);
  assert(res.ec == std::errc());
  return res.ptr;
}

// "%.<precision>f" of `value` at `out`, which has `room` bytes.
char* FormatFixed(char* out, std::size_t room, double value, int precision) {
  auto res = std::to_chars(out, out + room, value, std::chars_format::fixed, precision);
  assert(res.ec == std::errc());
  return res.ptr;
}

}  // namespace

#else  // snprintf fallback: same bytes, one formatted stack write, no heap.

char* FormatInt(char* out, long long value) {
  int n = std::snprintf(out, kMaxFormattedChars, "%lld", value);
  assert(n > 0 && n < kMaxFormattedChars);
  return out + n;
}

void AppendUint(std::string* out, unsigned long long value) {
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%llu", value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

namespace {

// FormatGeneral without its integral fast path.
char* FormatGeneralFormatted(char* out, double value, int precision) {
  int n = std::snprintf(out, kMaxFormattedChars, "%.*g", precision, value);
  assert(n > 0 && n < kMaxFormattedChars);
  return out + n;
}

char* FormatFixed(char* out, std::size_t room, double value, int precision) {
  int n = std::snprintf(out, room, "%.*f", precision, value);
  assert(n > 0 && static_cast<std::size_t>(n) < room);
  return out + n;
}

}  // namespace

#endif  // PDPA_FMT_HAVE_TO_CHARS

char* FormatGeneral(char* out, double value, int precision) {
  assert(precision >= 1 && precision <= 17);
  if (std::fabs(value) < kPow10[static_cast<std::size_t>(precision)]) {
    // Exact integral test; -0.0 (whole 0, sign set) prints "-0" below.
    const auto whole = static_cast<long long>(value);
    if (static_cast<double>(whole) == value && (whole != 0 || !std::signbit(value))) {
      return FormatInt(out, whole);
    }
  }
  return FormatGeneralFormatted(out, value, precision);
}

char* FormatMicrosAsSeconds(char* out, SimTime micros) {
  constexpr SimTime kExactLimit = SimTime{1} << 52;
  if (micros < 0 || micros >= kExactLimit) {
    // "%.6f" of an int64 microsecond count in seconds: at most 21 chars.
    return FormatFixed(out, kMaxFormattedChars, TimeToSeconds(micros), 6);
  }
  out = FormatInt(out, micros / kSecond);
  std::memcpy(out, ".000000", 7);
  for (SimTime rest = micros % kSecond, i = 6; rest > 0; rest /= 10, --i) {
    out[i] = static_cast<char>('0' + rest % 10);
  }
  return out + 7;
}

void AppendInt(std::string* out, long long value) {
  char buf[kMaxFormattedChars];
  out->append(buf, static_cast<size_t>(FormatInt(buf, value) - buf));
}

void AppendGeneral(std::string* out, double value, int precision) {
  char buf[kMaxFormattedChars];
  out->append(buf, static_cast<size_t>(FormatGeneral(buf, value, precision) - buf));
}

void AppendFixed(std::string* out, double value, int precision) {
  assert(precision >= 0 && precision <= 17);
  char buf[kMaxNumberChars];
  out->append(buf, static_cast<size_t>(FormatFixed(buf, sizeof(buf), value, precision) - buf));
}

void AppendMicrosAsSeconds(std::string* out, SimTime micros) {
  char buf[kMaxFormattedChars];
  out->append(buf, static_cast<size_t>(FormatMicrosAsSeconds(buf, micros) - buf));
}

}  // namespace pdpa
