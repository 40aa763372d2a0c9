// Zero-allocation append-to-buffer number formatters — the core of the
// observability serialization fast path.
//
// Every sink used to build one heap `std::string` per field via the
// snprintf-backed StrFormat; these helpers format into a caller-provided
// buffer instead (typically a reusable per-event scratch string), so
// steady-state serialization performs no heap allocation at all.
//
// Formatting contract: the output is byte-identical to the printf formats
// the sinks have always used —
//   AppendInt      == StrFormat("%lld", v)
//   AppendUint     == StrFormat("%llu", v)
//   AppendGeneral  == StrFormat("%.<precision>g", v)
//   AppendFixed    == StrFormat("%.<precision>f", v)
//   AppendMicrosAsSeconds(t) == StrFormat("%.6f", TimeToSeconds(t))
// The fast implementations ride std::to_chars, whose precision overloads
// are specified to produce printf-style output; the equivalence is pinned
// by an exhaustive-corpus golden test against StrFormat
// (tests/serialization_test.cc). On toolchains without floating-point
// to_chars the same functions fall back to snprintf into a stack buffer —
// still allocation-free, just slower.
//
// Two exact fast paths skip floating-point formatting on the values the
// time-series and event sinks print most:
//   - AppendGeneral prints an integral value v with |v| < 10^precision
//     through AppendInt: %g then shows all of v's digits, with no point and
//     no exponent. -0.0 ("-0"), NaN and infinities take the general path.
//   - AppendMicrosAsSeconds prints integer seconds, a point and six
//     zero-padded digits for 0 <= t < 2^52 µs. There, t / 10^6 as a double
//     lies within half an ulp (< 5e-7) of the exact decimal, so "%.6f"
//     rounds back to it. Any other t goes through AppendFixed.
#ifndef SRC_COMMON_FMT_H_
#define SRC_COMMON_FMT_H_

#include <string>

#include "src/common/time_types.h"

namespace pdpa {

// Appends the decimal form of `value` to *out. Exactly "%lld" / "%llu".
void AppendInt(std::string* out, long long value);
void AppendUint(std::string* out, unsigned long long value);

// Appends `value` in printf "%.<precision>g" form (shortest of fixed /
// scientific at the given significant digits, trailing zeros removed).
// precision must be in [1, 17]. The sinks' default contract is 10.
void AppendGeneral(std::string* out, double value, int precision = 10);

// Appends `value` in printf "%.<precision>f" form (fixed point, exactly
// `precision` fractional digits). precision must be in [0, 17].
void AppendFixed(std::string* out, double value, int precision);

// Appends the SimTime `micros` in seconds with six fractional digits:
// exactly AppendFixed(out, TimeToSeconds(micros), 6).
void AppendMicrosAsSeconds(std::string* out, SimTime micros);

// Raw-cursor forms of AppendInt, AppendGeneral and AppendMicrosAsSeconds,
// for writers that format straight into a sized buffer: each writes the
// same bytes at `out` and returns the end. The caller guarantees
// kMaxFormattedChars bytes of room at `out`.
inline constexpr int kMaxFormattedChars = 32;
char* FormatInt(char* out, long long value);
char* FormatGeneral(char* out, double value, int precision = 10);
char* FormatMicrosAsSeconds(char* out, SimTime micros);

}  // namespace pdpa

#endif  // SRC_COMMON_FMT_H_
