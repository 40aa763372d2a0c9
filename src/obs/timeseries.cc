#include "src/obs/timeseries.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/common/fmt.h"

namespace pdpa {

namespace {

constexpr char kCsvHeader[] =
    "kind,t_s,t_end_s,job,alloc,speedup,efficiency,state,free_cpus,running,queued,"
    "utilization\n";

char* Put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

// Top bits of a multiplicative hash: quantum-spaced timestamps and
// utilization bit patterns spread over the slots instead of sharing low bits.
std::size_t HashSlot(std::uint64_t bits) {
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> 56);
}

// Formatted field texts, direct-mapped by slot and reused while the values
// they print are bitwise unchanged (key words a, b), so -0.0 and NaN print
// exactly as the formatter prints them.
template <std::size_t kSlots, std::size_t kTextBytes>
class TextCache {
 public:
  // Writes at p the text of the key (a, b), calling format(char*) -> end to
  // fill the slot on a miss, and returns the text's end. The whole
  // fixed-width slot is copied, so kTextBytes of room must follow p.
  template <typename Format>
  char* Put(char* p, std::size_t slot, std::uint64_t a, std::uint64_t b, Format format) {
    Entry& entry = entries_[slot % kSlots];
    if (!entry.filled || entry.a != a || entry.b != b) {
      entry.filled = true;
      entry.a = a;
      entry.b = b;
      entry.length = static_cast<std::uint8_t>(format(entry.text) - entry.text);
    }
    std::memcpy(p, entry.text, kTextBytes);
    return p + entry.length;
  }

 private:
  struct Entry {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool filled = false;
    std::uint8_t length = 0;
    char text[kTextBytes] = {};
  };
  std::array<Entry, kSlots> entries_{};
};

// Room one row needs past its state name: its longest field texts (each
// Format* call stays within kMaxFormattedChars), separators, a node column,
// and the fixed-width copies of cache slots.
constexpr std::size_t kRowRoom = 256;

// Formats app and machine rows at a raw cursor. All rows of one sample
// instant share their timestamps, and utilization takes at most ncpus + 1
// values, so both are formatted once and then copied. An app row's speedup
// and efficiency repeat the job's latest measurement in every window until
// its next report, so the formatted pair is kept per recent job.
class RowFormatter {
 public:
  char* App(char* p, const TimeSeriesSampler::AppPoint& point) {
    p = Put(p, "app,");
    p = Time(p, point.t_start);
    *p++ = ',';
    p = Time(p, point.t_end);
    *p++ = ',';
    p = FormatInt(p, point.job);
    *p++ = ',';
    p = FormatGeneral(p, point.alloc);
    // Direct-mapped by JobId: a node runs only a few jobs at once.
    p = measurements_.Put(p, static_cast<std::size_t>(point.job),
                          std::bit_cast<std::uint64_t>(point.speedup),
                          std::bit_cast<std::uint64_t>(point.efficiency), [&point](char* q) {
                            *q++ = ',';
                            q = FormatGeneral(q, point.speedup);
                            *q++ = ',';
                            return FormatGeneral(q, point.efficiency);
                          });
    *p++ = ',';
    p = Put(p, point.state);
    return Put(p, ",,,,\n");
  }

  char* Machine(char* p, const TimeSeriesSampler::MachinePoint& point) {
    p = Put(p, "machine,");
    p = Time(p, point.t);
    p = Put(p, ",,,,,,,");
    p = FormatInt(p, point.free_cpus);
    *p++ = ',';
    p = FormatInt(p, point.running);
    *p++ = ',';
    p = FormatInt(p, point.queued);
    *p++ = ',';
    const auto bits = std::bit_cast<std::uint64_t>(point.utilization);
    p = utilizations_.Put(p, HashSlot(bits), bits, 0, [&point](char* q) {
      return FormatGeneral(q, point.utilization);
    });
    *p++ = '\n';
    return p;
  }

 private:
  char* Time(char* p, SimTime t) {
    const auto bits = static_cast<std::uint64_t>(t);
    return times_.Put(p, HashSlot(bits), bits, 0,
                      [t](char* q) { return FormatMicrosAsSeconds(q, t); });
  }

  TextCache<64, kMaxFormattedChars> times_;
  TextCache<64, 2 * kMaxFormattedChars> measurements_;
  TextCache<256, kMaxFormattedChars> utilizations_;
};

// Appends to a std::string through a raw cursor. The string is resized
// ahead of the cursor, never only reserved, so every byte written lies
// below size() where sanitizers see it; Finish trims the unwritten tail.
class StringCursor {
 public:
  explicit StringCursor(std::string* out) : out_(out), end_(out->size()) {}

  // The cursor, with at least `room` bytes below size().
  char* Room(std::size_t room) {
    if (out_->size() - end_ < room) {
      out_->resize(std::max({out_->capacity(), 2 * out_->size(), end_ + room}));
    }
    return out_->data() + end_;
  }
  void Advance(const char* end) { end_ = static_cast<std::size_t>(end - out_->data()); }
  void Finish() { out_->resize(end_); }

 private:
  std::string* out_;
  std::size_t end_;
};

// WriteCsv's row order: an app window ends before or at the machine sample
// it precedes (app windows before the machine sample taken at the same
// instant).
bool TakeApp(const TimeSeriesSampler& series, std::size_t a, std::size_t m) {
  return m >= series.machine().size() ||
         (a < series.apps().size() && series.apps()[a].t_end <= series.machine()[m].t);
}

}  // namespace

std::map<JobId, double> TimeSeriesSampler::AllocIntegralUs() const {
  std::map<JobId, double> integral;
  for (const AppPoint& point : apps_) {
    integral[point.job] += point.alloc * static_cast<double>(point.t_end - point.t_start);
  }
  return integral;
}

void TimeSeriesSampler::WriteCsv(std::string* out) const {
  out->append(kCsvHeader);
  // Both vectors are appended in simulation order; merge by timestamp so the
  // CSV reads chronologically.
  StringCursor csv(out);
  RowFormatter rows;
  std::size_t a = 0;
  std::size_t m = 0;
  while (a < apps_.size() || m < machine_.size()) {
    if (TakeApp(*this, a, m)) {
      const AppPoint& point = apps_[a++];
      csv.Advance(rows.App(csv.Room(kRowRoom + point.state.size()), point));
    } else {
      csv.Advance(rows.Machine(csv.Room(kRowRoom), machine_[m++]));
    }
  }
  csv.Finish();
}

void TimeSeriesSampler::Clear() {
  apps_.clear();
  machine_.clear();
}

void WriteClusterTimeSeriesCsv(const std::vector<const TimeSeriesSampler*>& nodes,
                               std::string* out) {
  out->append("node,");
  out->append(kCsvHeader);
  // Per-node cursors replay each sampler with WriteCsv's own take-app rule,
  // so the row sequence within one node matches its single-machine CSV
  // exactly; across nodes the earliest key time wins, ties to the lowest
  // node index.
  struct Cursor {
    std::size_t a = 0;
    std::size_t m = 0;
  };
  std::vector<Cursor> cursors(nodes.size());
  StringCursor csv(out);
  RowFormatter rows;
  while (true) {
    std::size_t best = nodes.size();
    SimTime best_t = 0;
    bool best_app = false;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const TimeSeriesSampler& s = *nodes[k];
      const Cursor& c = cursors[k];
      if (c.a >= s.apps().size() && c.m >= s.machine().size()) {
        continue;
      }
      const bool take_app = TakeApp(s, c.a, c.m);
      const SimTime t = take_app ? s.apps()[c.a].t_end : s.machine()[c.m].t;
      if (best == nodes.size() || t < best_t) {
        best = k;
        best_t = t;
        best_app = take_app;
      }
    }
    if (best == nodes.size()) {
      break;
    }
    const TimeSeriesSampler& s = *nodes[best];
    Cursor& c = cursors[best];
    const std::size_t state_size = best_app ? s.apps()[c.a].state.size() : 0;
    char* p = FormatInt(csv.Room(kRowRoom + state_size), static_cast<long long>(best));
    *p++ = ',';
    csv.Advance(best_app ? rows.App(p, s.apps()[c.a++]) : rows.Machine(p, s.machine()[c.m++]));
  }
  csv.Finish();
}

}  // namespace pdpa
