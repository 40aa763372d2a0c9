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
// The fast implementations ride std::to_chars, whose precision overloads
// are specified to produce printf-style output; the equivalence is pinned
// by an exhaustive-corpus golden test against StrFormat
// (tests/serialization_test.cc). On toolchains without floating-point
// to_chars the same functions fall back to snprintf into a stack buffer —
// still allocation-free, just slower.
#ifndef SRC_COMMON_FMT_H_
#define SRC_COMMON_FMT_H_

#include <string>

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

}  // namespace pdpa

#endif  // SRC_COMMON_FMT_H_
