#include "src/obs/timeseries.h"

#include <array>
#include <bit>
#include <cstdint>
#include <ostream>

#include "src/common/bufwriter.h"
#include "src/common/fmt.h"
#include "src/common/strings.h"

namespace pdpa {

namespace {

constexpr char kCsvHeader[] =
    "kind,t_s,t_end_s,job,alloc,speedup,efficiency,state,free_cpus,running,queued,"
    "utilization\n";

// An app row's speedup and efficiency repeat the job's latest measurement
// in every window until its next report, and their %.10g formatting is most
// of a row's cost. This keeps the formatted pair per recent job and reuses it
// while both values are bitwise unchanged, so -0.0 and NaN print exactly as
// the formatter prints them.
class MeasurementText {
 public:
  // Appends ",<speedup>,<efficiency>" of `p`.
  void Append(std::string* row, const TimeSeriesSampler::AppPoint& p) {
    const auto speedup_bits = std::bit_cast<std::uint64_t>(p.speedup);
    const auto efficiency_bits = std::bit_cast<std::uint64_t>(p.efficiency);
    // Direct-mapped by JobId: a node runs only a few jobs at once.
    Entry& entry = entries_[static_cast<std::size_t>(p.job) % entries_.size()];
    if (!entry.filled || entry.speedup_bits != speedup_bits ||
        entry.efficiency_bits != efficiency_bits) {
      entry.filled = true;
      entry.speedup_bits = speedup_bits;
      entry.efficiency_bits = efficiency_bits;
      entry.text.assign(1, ',');
      AppendGeneral(&entry.text, p.speedup, 10);
      entry.text.push_back(',');
      AppendGeneral(&entry.text, p.efficiency, 10);
    }
    row->append(entry.text);
  }

 private:
  struct Entry {
    bool filled = false;
    std::uint64_t speedup_bits = 0;
    std::uint64_t efficiency_bits = 0;
    std::string text;
  };
  std::array<Entry, 64> entries_;
};

void AppendAppRow(std::string* row, const TimeSeriesSampler::AppPoint& p,
                  MeasurementText* measurements) {
  row->append("app,");
  AppendMicrosAsSeconds(row, p.t_start);
  row->push_back(',');
  AppendMicrosAsSeconds(row, p.t_end);
  row->push_back(',');
  AppendInt(row, p.job);
  row->push_back(',');
  AppendGeneral(row, p.alloc, 10);
  measurements->Append(row, p);
  row->push_back(',');
  row->append(p.state);
  row->append(",,,,\n");
}

void AppendMachineRow(std::string* row, const TimeSeriesSampler::MachinePoint& p) {
  row->append("machine,");
  AppendMicrosAsSeconds(row, p.t);
  row->append(",,,,,,,");
  AppendInt(row, p.free_cpus);
  row->push_back(',');
  AppendInt(row, p.running);
  row->push_back(',');
  AppendInt(row, p.queued);
  row->push_back(',');
  AppendGeneral(row, p.utilization, 10);
  row->push_back('\n');
}

}  // namespace

std::map<JobId, double> TimeSeriesSampler::AllocIntegralUs() const {
  std::map<JobId, double> integral;
  for (const AppPoint& point : apps_) {
    integral[point.job] += point.alloc * static_cast<double>(point.t_end - point.t_start);
  }
  return integral;
}

void TimeSeriesSampler::WriteCsv(std::ostream& out) const {
  BufWriter writer(&out);
  writer.Append(kCsvHeader);
  // Both vectors are appended in simulation order; merge by timestamp so the
  // CSV reads chronologically (app windows before the machine sample taken
  // at the same instant).
  std::string row;
  row.reserve(160);
  MeasurementText measurements;
  std::size_t a = 0;
  std::size_t m = 0;
  while (a < apps_.size() || m < machine_.size()) {
    const bool take_app =
        m >= machine_.size() || (a < apps_.size() && apps_[a].t_end <= machine_[m].t);
    row.clear();
    if (take_app) {
      AppendAppRow(&row, apps_[a++], &measurements);
    } else {
      AppendMachineRow(&row, machine_[m++]);
    }
    writer.Append(row);
  }
  writer.Flush();
}

void TimeSeriesSampler::Clear() {
  apps_.clear();
  machine_.clear();
}

void WriteClusterTimeSeriesCsv(const std::vector<const TimeSeriesSampler*>& nodes,
                               std::ostream& out) {
  BufWriter writer(&out);
  writer.Append("node,");
  writer.Append(kCsvHeader);
  // Per-node cursors replay each sampler with WriteCsv's own take-app rule,
  // so the row sequence within one node matches its single-machine CSV
  // exactly; across nodes the earliest key time wins, ties to the lowest
  // node index.
  struct Cursor {
    std::size_t a = 0;
    std::size_t m = 0;
  };
  std::vector<Cursor> cursors(nodes.size());
  const auto key_time = [&](std::size_t k, bool* take_app) -> SimTime {
    const TimeSeriesSampler& s = *nodes[k];
    const Cursor& c = cursors[k];
    *take_app = c.m >= s.machine().size() ||
                (c.a < s.apps().size() && s.apps()[c.a].t_end <= s.machine()[c.m].t);
    return *take_app ? s.apps()[c.a].t_end : s.machine()[c.m].t;
  };
  std::string row;
  row.reserve(160);
  MeasurementText measurements;
  while (true) {
    std::size_t best = nodes.size();
    SimTime best_t = 0;
    bool best_app = false;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const Cursor& c = cursors[k];
      if (c.a >= nodes[k]->apps().size() && c.m >= nodes[k]->machine().size()) {
        continue;
      }
      bool take_app = false;
      const SimTime t = key_time(k, &take_app);
      if (best == nodes.size() || t < best_t) {
        best = k;
        best_t = t;
        best_app = take_app;
      }
    }
    if (best == nodes.size()) {
      break;
    }
    row.clear();
    AppendInt(&row, static_cast<int>(best));
    row.push_back(',');
    Cursor& c = cursors[best];
    if (best_app) {
      AppendAppRow(&row, nodes[best]->apps()[c.a++], &measurements);
    } else {
      AppendMachineRow(&row, nodes[best]->machine()[c.m++]);
    }
    writer.Append(row);
  }
  writer.Flush();
}

namespace internal {

void WriteTimeSeriesCsvLegacy(const TimeSeriesSampler& series, std::ostream& out) {
  out << kCsvHeader;
  std::size_t a = 0;
  std::size_t m = 0;
  const auto& apps = series.apps();
  const auto& machine = series.machine();
  while (a < apps.size() || m < machine.size()) {
    const bool take_app = m >= machine.size() || (a < apps.size() && apps[a].t_end <= machine[m].t);
    if (take_app) {
      const TimeSeriesSampler::AppPoint& p = apps[a++];
      out << StrFormat("app,%.6f,%.6f,%d,%.10g,%.10g,%.10g,%s,,,,\n", TimeToSeconds(p.t_start),
                       TimeToSeconds(p.t_end), p.job, p.alloc, p.speedup, p.efficiency,
                       p.state.c_str());
    } else {
      const TimeSeriesSampler::MachinePoint& p = machine[m++];
      out << StrFormat("machine,%.6f,,,,,,,%d,%d,%d,%.10g\n", TimeToSeconds(p.t), p.free_cpus,
                       p.running, p.queued, p.utilization);
    }
  }
}

}  // namespace internal

}  // namespace pdpa
