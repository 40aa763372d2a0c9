// Serialization fast-path tests (DESIGN.md §9).
//
// Pins the layers the zero-allocation path is built from:
//   1. the fmt.h number formatters are byte-identical to the snprintf
//      contracts the sinks have always used ("%lld"/"%llu"/"%.Ng"/"%.Nf"),
//      asserted over an exhaustive-edge + deterministic-random corpus;
//   2. the JSON escape table round-trips every byte through
//      JsonEscape/ParseFlatJson, including the \u00XX control-range;
//   3. BufWriter (spill, oversized record, dtor flush).
// What each recording writer prints is pinned against committed bytes in
// serialization_golden_test.cc.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/bufwriter.h"
#include "src/common/fmt.h"
#include "src/common/strings.h"
#include "src/obs/event_log.h"
#include "tests/deterministic_bits.h"

namespace pdpa {
namespace {

// ------------------------------------------------------------ fmt golden

std::vector<long long> IntCorpus() {
  std::vector<long long> corpus = {
      0,
      1,
      -1,
      7,
      -42,
      std::numeric_limits<long long>::max(),
      std::numeric_limits<long long>::min(),
      std::numeric_limits<int>::max(),
      std::numeric_limits<int>::min(),
  };
  long long p = 1;
  for (int i = 0; i < 18; ++i) {
    p *= 10;
    corpus.push_back(p);
    corpus.push_back(p - 1);
    corpus.push_back(-p);
    corpus.push_back(-p + 1);
  }
  DeterministicBits bits;
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(static_cast<long long>(bits.Next()));
  }
  return corpus;
}

std::vector<double> DoubleCorpus() {
  std::vector<double> corpus = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      2.0 / 3.0,
      1e-3,
      123.456,
      1e10,
      1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::denorm_min(),   // smallest subnormal
      std::numeric_limits<double>::epsilon(),
  };
  for (int e = -30; e <= 30; ++e) {
    corpus.push_back(std::pow(10.0, e));
    corpus.push_back(-std::pow(10.0, e) * 1.2345678901);
  }
  // AppendGeneral's integral fast path (|v| < 10^precision): both sides of
  // every power of ten, the 2^52 / 2^53 region where doubles stop holding
  // every integer, negative integers, and non-integers just below one.
  for (int e = 0; e <= 17; ++e) {
    const double p = std::pow(10.0, e);
    for (const double v : {p - 1.0, p, p + 1.0, std::nextafter(p, 0.0), std::nextafter(p, 2 * p)}) {
      corpus.push_back(v);
      corpus.push_back(-v);
    }
  }
  for (const double v : {0x1p52, 0x1p52 - 1.0, 0x1p52 + 1.0, 0x1p52 - 0.5, 0x1p53, 0x1p53 + 2.0,
                         std::nextafter(0x1p52, 0.0), -42.0, -7.0, 30.0, 59.0, 1.0 - 0x1p-53,
                         2.0 - 0x1p-52, 59.0 - 0x1p-47, 0.1, 99.99999999}) {
    corpus.push_back(v);
    corpus.push_back(-v);
  }
  DeterministicBits bits;
  for (int i = 0; i < 2000; ++i) {
    // Integers of every magnitude, and the nearest non-integers below them.
    const double whole = static_cast<double>(static_cast<long long>(bits.Next() >> (i % 64)));
    corpus.push_back(whole);
    corpus.push_back(-whole);
    corpus.push_back(std::nextafter(whole, 0.0));
  }
  for (int i = 0; i < 20000; ++i) {
    // Raw bit patterns: exercises subnormals, NaN payloads, both signs.
    double value = 0.0;
    const std::uint64_t pattern = bits.Next();
    std::memcpy(&value, &pattern, sizeof(value));
    corpus.push_back(value);
    // And values in the ranges the sinks actually emit.
    corpus.push_back(static_cast<double>(pattern % 1000000) / 997.0);
  }
  return corpus;
}

TEST(FmtGoldenTest, AppendIntMatchesStrFormatLld) {
  std::string got;
  for (const long long value : IntCorpus()) {
    got.clear();
    AppendInt(&got, value);
    ASSERT_EQ(got, StrFormat("%lld", value));
  }
}

TEST(FmtGoldenTest, AppendUintMatchesStrFormatLlu) {
  std::string got;
  for (const long long value : IntCorpus()) {
    const unsigned long long u = static_cast<unsigned long long>(value);
    got.clear();
    AppendUint(&got, u);
    ASSERT_EQ(got, StrFormat("%llu", u));
  }
}

TEST(FmtGoldenTest, AppendGeneralMatchesStrFormatG) {
  const std::vector<double> corpus = DoubleCorpus();
  std::string got;
  for (const int precision : {1, 2, 6, 10, 17}) {
    const std::string spec = StrFormat("%%.%dg", precision);
    for (const double value : corpus) {
      got.clear();
      AppendGeneral(&got, value, precision);
      ASSERT_EQ(got, StrFormat(spec.c_str(), value))
          << "precision " << precision << " value bits " << StrFormat("%a", value);
    }
  }
}

TEST(FmtGoldenTest, AppendFixedMatchesStrFormatF) {
  const std::vector<double> corpus = DoubleCorpus();
  std::string got;
  for (const int precision : {0, 2, 3, 6}) {
    const std::string spec = StrFormat("%%.%df", precision);
    for (const double value : corpus) {
      // Fixed notation of huge magnitudes prints hundreds of digits; the
      // sinks only ever use %f for times/loads. Keep the corpus in range.
      if (std::isfinite(value) && std::abs(value) > 1e15) {
        continue;
      }
      got.clear();
      AppendFixed(&got, value, precision);
      ASSERT_EQ(got, StrFormat(spec.c_str(), value))
          << "precision " << precision << " value bits " << StrFormat("%a", value);
    }
  }
}

TEST(FmtGoldenTest, AppendMicrosAsSecondsMatchesStrFormatF) {
  std::vector<SimTime> corpus = {0,
                                 1,
                                 999999,
                                 1000000,
                                 (SimTime{1} << 52) - 1,
                                 SimTime{1} << 52,
                                 -1,
                                 -1000000,
                                 (SimTime{1} << 52) + 1,
                                 SimTime{1} << 53,
                                 std::numeric_limits<SimTime>::max(),
                                 std::numeric_limits<SimTime>::min()};
  DeterministicBits bits;
  for (int i = 0; i < 20000; ++i) {
    // Every magnitude up to 2^63 - 1, both signs.
    const auto t = static_cast<SimTime>(bits.Next() >> (1 + i % 63));
    corpus.push_back(t);
    corpus.push_back(-t);
  }
  std::string got;
  for (const SimTime t : corpus) {
    got.clear();
    AppendMicrosAsSeconds(&got, t);
    ASSERT_EQ(got, StrFormat("%.6f", TimeToSeconds(t))) << "t " << t;
  }
}

TEST(FmtGoldenTest, DefaultGeneralPrecisionIsTen) {
  std::string got;
  AppendGeneral(&got, 2.0 / 3.0);
  EXPECT_EQ(got, StrFormat("%.10g", 2.0 / 3.0));
}

// --------------------------------------------------------- escape table

TEST(JsonEscapeTest, FullEscapeTableRoundTripsThroughParse) {
  // Every byte 0x00..0x7F plus a multi-byte UTF-8 sample; the escape table
  // must emit the short forms for the named controls, \u00XX for the rest
  // of the control range, and pass everything else through.
  std::string raw;
  for (int c = 0; c < 0x80; ++c) {
    raw.push_back(static_cast<char>(c));
  }
  raw += "π … \xC3\xA9";  // multi-byte sequences pass through untouched

  const std::string escaped = JsonEscape(raw);
  EXPECT_TRUE(escaped.find("\\u0000") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\u001f") != std::string::npos);
  // \b and \f take the \u00XX form — the escape table's short forms are
  // only \" \\ \n \r \t, and the byte contract pins it that way.
  EXPECT_TRUE(escaped.find("\\u0008") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\u000c") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\n") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\r") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\t") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\\"") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\\\") != std::string::npos);
  // No raw control bytes may survive escaping.
  for (char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }

  std::string line;
  JsonObjectWriter writer(&line);
  writer.Field("payload", raw);
  writer.Finish();
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseFlatJson(line, &fields));
  EXPECT_EQ(fields["payload"], raw);
}

TEST(JsonEscapeTest, JsonEscapeToAppendsIdenticalBytes) {
  const std::string raw = "a\"b\\c\nd\x01";
  std::string appended = "prefix:";
  JsonEscapeTo(&appended, raw);
  EXPECT_EQ(appended, "prefix:" + JsonEscape(raw));
}

// ------------------------------------------------------------- BufWriter

TEST(BufWriterTest, SmallAppendsReachSinkOnFlush) {
  std::ostringstream sink;
  BufWriter writer(&sink);
  writer.Append("hello");
  writer.Append(' ');
  writer.Append("world");
  EXPECT_EQ(sink.str(), "");  // still buffered
  writer.Flush();
  EXPECT_EQ(sink.str(), "hello world");
  EXPECT_EQ(writer.bytes_written(), 11u);
}

TEST(BufWriterTest, SpillsAtBufferBoundaryWithoutByteLoss) {
  std::ostringstream sink;
  std::string expected;
  {
    BufWriter writer(&sink);
    const std::string chunk(1000, 'x');
    for (int i = 0; i < 200; ++i) {  // 200 KB through a 64 KiB buffer
      std::string record = chunk;
      record[0] = static_cast<char>('a' + i % 26);
      writer.Append(record);
      expected += record;
    }
    EXPECT_EQ(writer.bytes_written(), expected.size());
  }  // destructor flushes the tail
  EXPECT_EQ(sink.str(), expected);
}

TEST(BufWriterTest, OversizedRecordBypassesBuffer) {
  std::ostringstream sink;
  BufWriter writer(&sink);
  writer.Append("head:");
  const std::string big(BufWriter::kBufferSize * 2, 'y');
  writer.Append(big);
  // The oversized record cannot fit the buffer, so it (and the bytes queued
  // before it) must already be in the sink without an explicit Flush.
  EXPECT_EQ(sink.str(), "head:" + big);
}

TEST(BufWriterTest, NullSinkDiscardsQuietly) {
  BufWriter writer(nullptr);
  writer.Append("dropped");
  writer.Flush();
  EXPECT_EQ(writer.bytes_written(), 0u);
}

}  // namespace
}  // namespace pdpa
