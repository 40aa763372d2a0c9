#include "src/common/fmt.h"

#include <cassert>

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

void AppendGeneral(std::string* out, double value, int precision) {
  assert(precision >= 1 && precision <= 17);
  char buf[kMaxNumberChars];
  auto res = std::to_chars(buf, buf + sizeof(buf), value,
                           std::chars_format::general, precision);
  assert(res.ec == std::errc());
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

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

void AppendGeneral(std::string* out, double value, int precision) {
  assert(precision >= 1 && precision <= 17);
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

void AppendFixed(std::string* out, double value, int precision) {
  assert(precision >= 0 && precision <= 17);
  char buf[kMaxNumberChars];
  int n = std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  assert(n > 0 && n < kMaxNumberChars);
  out->append(buf, static_cast<size_t>(n));
}

#endif  // PDPA_FMT_HAVE_TO_CHARS

}  // namespace pdpa
