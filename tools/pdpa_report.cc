// pdpa_report — render a flight-recorder event log (JSONL, produced by
// pdpa_sim --events_out) as a human-readable report: one timeline per
// application plus event-type and PDPA-transition summaries.
//
// Examples:
//   pdpa_sim --workload w1 --events_out ev.jsonl
//   pdpa_report ev.jsonl
//   pdpa_report ev.jsonl --jobs 3,7 --no_timeline
//
// The report body goes through a BufWriter over stdout (one write per
// ~64 KiB instead of one printf per line); number fields are formatted
// with the src/common/fmt.h appenders. Diagnostics stay on stderr.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/bufwriter.h"
#include "src/common/flags.h"
#include "src/common/fmt.h"
#include "src/common/strings.h"
#include "src/obs/event_log.h"

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: pdpa_report FILE [flags]

Renders a pdpa_sim/pdpa_batch event log (JSONL) as per-application
timelines plus event and PDPA-transition summaries.

flags:
  --jobs N,M,...   only show the timelines of these job ids
  --no_timeline    summaries only
  --help           this text
)";

using Fields = std::map<std::string, std::string>;

std::string Get(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  return it == fields.end() ? std::string() : it->second;
}

double Seconds(const Fields& fields, const std::string& key) {
  double us = 0.0;
  (void)ParseDouble(Get(fields, key), &us);
  return us / 1e6;
}

// printf "%<width>.3f"-style cell: fixed 3 decimals, space-padded on the
// left to at least `width` characters.
void AppendFixed3Padded(std::string* out, double value, std::size_t width) {
  const std::size_t start = out->size();
  AppendFixed(out, value, 3);
  const std::size_t len = out->size() - start;
  if (len < width) {
    out->insert(start, width - len, ' ');
  }
}

// printf "%-<width>s"-style cell: space-padded on the right.
void AppendLeftAligned(std::string* out, std::string_view text, std::size_t width) {
  out->append(text);
  if (text.size() < width) {
    out->append(width - text.size(), ' ');
  }
}

// One timeline entry: formatted text, keyed by (time, input order) so each
// app's events stay chronological even across run segments.
struct TimelineEntry {
  double t_s = 0.0;
  long long order = 0;
  std::string text;
};

// One host-time profiler span (prof_span records from --prof_out), kept in
// input order. Hit counts are deterministic; the nanosecond columns are not.
struct ProfRow {
  std::string span;
  long long hits = 0;
  long long total_ns = 0;
  long long self_ns = 0;
};

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const std::string jobs_filter_text = flags.GetString("jobs", "");
  const bool no_timeline = flags.GetBool("no_timeline", false);
  const std::vector<std::string> inputs = flags.positional();
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return 2;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "malformed flag value (see --help)\n");
    return 2;
  }
  if (inputs.size() != 1) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::set<long long> jobs_filter;
  for (const std::string& token : SplitTokens(jobs_filter_text, ',')) {
    long long id = 0;
    if (!ParseInt64(token, &id)) {
      std::fprintf(stderr, "bad --jobs entry '%s' (want comma-separated ids)\n", token.c_str());
      return 2;
    }
    jobs_filter.insert(id);
  }

  std::ifstream in(inputs[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", inputs[0].c_str());
    return 2;
  }

  std::map<std::string, long long> type_counts;
  std::map<std::string, long long> transition_targets;
  std::map<std::string, std::string> job_class;
  std::map<std::string, std::vector<TimelineEntry>> timelines;
  long long moved_total = 0;
  long long migrations_total = 0;
  long long holds = 0;
  std::vector<ProfRow> prof_rows;
  long long bad_lines = 0;
  long long order = 0;
  int segment = 0;

  BufWriter writer(&std::cout);
  std::string row;
  row.reserve(160);

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    Fields fields;
    if (!ParseFlatJson(line, &fields)) {
      ++bad_lines;
      continue;
    }
    const std::string type = Get(fields, "type");
    ++type_counts[type];
    ++order;
    const double t_s = Seconds(fields, "t_us");
    const std::string job = Get(fields, "job");

    if (type == "run_start") {
      ++segment;
      row.clear();
      row.append("run ");
      AppendInt(&row, segment);
      row.append(": policy ");
      row.append(Get(fields, "policy"));
      row.append(", workload ");
      row.append(Get(fields, "workload"));
      row.append(", load ");
      row.append(Get(fields, "load"));
      row.append(", seed ");
      row.append(Get(fields, "seed"));
      row.append(", ");
      row.append(Get(fields, "cpus"));
      row.append(" cpus\n");
      writer.Append(row);
      continue;
    }
    if (type == "run_end") {
      row.clear();
      row.append("run ");
      AppendInt(&row, segment);
      row.append(": ended at ");
      AppendFixed(&row, t_s, 3);
      row.append(" s, ");
      row.append(Get(fields, "jobs"));
      row.append(" jobs, completed=");
      row.append(Get(fields, "completed"));
      row.push_back('\n');
      writer.Append(row);
      continue;
    }
    if (type == "cpu_handoffs") {
      moved_total += std::atoll(Get(fields, "moved").c_str());
      migrations_total += std::atoll(Get(fields, "migrations").c_str());
      continue;
    }
    if (type == "admit_hold") {
      ++holds;
      continue;
    }
    if (type == "prof_span") {
      ProfRow prof;
      prof.span = Get(fields, "span");
      prof.hits = std::atoll(Get(fields, "hits").c_str());
      prof.total_ns = std::atoll(Get(fields, "total_ns").c_str());
      prof.self_ns = std::atoll(Get(fields, "self_ns").c_str());
      prof_rows.push_back(std::move(prof));
      continue;
    }
    if (type == "prof_meta") {
      continue;
    }
    if (job.empty()) {
      continue;
    }

    TimelineEntry entry;
    entry.t_s = t_s;
    entry.order = order;
    if (type == "job_submit") {
      job_class[job] = Get(fields, "class");
      entry.text.append("submitted (class ");
      entry.text.append(Get(fields, "class"));
      entry.text.append(", request ");
      entry.text.append(Get(fields, "request"));
      if (Get(fields, "rigid") == "true") {
        entry.text.append(", rigid");
      }
      entry.text.push_back(')');
    } else if (type == "job_start") {
      entry.text.append("started with ");
      entry.text.append(Get(fields, "alloc"));
      entry.text.append(" cpus (running ");
      entry.text.append(Get(fields, "running"));
      entry.text.append(", queued ");
      entry.text.append(Get(fields, "queued"));
      entry.text.push_back(')');
    } else if (type == "job_finish") {
      const double wait_s = Seconds(fields, "start_us") - Seconds(fields, "submit_us");
      const double exec_s = t_s - Seconds(fields, "start_us");
      entry.text.append("finished (wait ");
      AppendFixed(&entry.text, wait_s, 1);
      entry.text.append(" s, exec ");
      AppendFixed(&entry.text, exec_s, 1);
      entry.text.append(" s)");
    } else if (type == "pdpa_transition") {
      ++transition_targets[Get(fields, "to")];
      entry.text.append(Get(fields, "from"));
      entry.text.append(" -> ");
      entry.text.append(Get(fields, "to"));
      entry.text.append(", alloc ");
      entry.text.append(Get(fields, "from_alloc"));
      entry.text.append(" -> ");
      entry.text.append(Get(fields, "to_alloc"));
      entry.text.append(" (S=");
      entry.text.append(Get(fields, "speedup"));
      entry.text.append(", eff=");
      entry.text.append(Get(fields, "eff"));
      entry.text.append(", target=");
      entry.text.append(Get(fields, "target"));
      entry.text.append(", ");
      entry.text.append(Get(fields, "trigger"));
      entry.text.push_back(')');
    } else if (type == "perf_sample") {
      entry.text.append("measured S=");
      entry.text.append(Get(fields, "speedup"));
      entry.text.append(" on ");
      entry.text.append(Get(fields, "procs"));
      entry.text.append(" cpus (eff ");
      entry.text.append(Get(fields, "eff"));
      entry.text.push_back(')');
    } else {
      entry.text = type;
    }
    timelines[job].push_back(std::move(entry));
  }

  if (!no_timeline) {
    for (const auto& [job, entries] : timelines) {
      const long long id = std::atoll(job.c_str());
      if (!jobs_filter.empty() && !jobs_filter.contains(id)) {
        continue;
      }
      const auto cls = job_class.find(job);
      row.clear();
      row.append("\njob ");
      row.append(job);
      if (cls != job_class.end()) {
        row.append(" class ");
        row.append(cls->second);
      }
      row.append(":\n");
      writer.Append(row);
      for (const TimelineEntry& entry : entries) {
        row.clear();
        row.append("  ");
        AppendFixed3Padded(&row, entry.t_s, 10);
        row.append(" s  ");
        row.append(entry.text);
        row.push_back('\n');
        writer.Append(row);
      }
    }
  }

  writer.Append("\nevent counts:\n");
  for (const auto& [type, count] : type_counts) {
    row.clear();
    row.append("  ");
    AppendLeftAligned(&row, type, 20);
    row.push_back(' ');
    AppendInt(&row, count);
    row.push_back('\n');
    writer.Append(row);
  }
  if (!transition_targets.empty()) {
    writer.Append("\npdpa transitions by target state:\n");
    for (const auto& [state, count] : transition_targets) {
      row.clear();
      row.append("  ");
      AppendLeftAligned(&row, state, 10);
      row.push_back(' ');
      AppendInt(&row, count);
      row.push_back('\n');
      writer.Append(row);
    }
  }
  if (moved_total > 0 || migrations_total > 0) {
    row.clear();
    row.append("\ncpu handoffs: ");
    AppendInt(&row, moved_total);
    row.append(" moved, ");
    AppendInt(&row, migrations_total);
    row.append(" job-to-job migrations\n");
    writer.Append(row);
  }
  if (holds > 0) {
    row.clear();
    row.append("admission holds: ");
    AppendInt(&row, holds);
    row.push_back('\n');
    writer.Append(row);
  }
  if (!prof_rows.empty()) {
    writer.Append("\nhost-time profile (hits are deterministic; times are not):\n");
    writer.Append("  span              hits        total_ms     self_ms\n");
    for (const ProfRow& prof : prof_rows) {
      row.clear();
      row.append("  ");
      AppendLeftAligned(&row, prof.span, 16);
      const std::size_t hits_start = row.size();
      AppendInt(&row, prof.hits);
      if (row.size() - hits_start < 10) {
        row.insert(hits_start, 10 - (row.size() - hits_start), ' ');
      }
      row.append("  ");
      AppendFixed3Padded(&row, static_cast<double>(prof.total_ns) / 1e6, 10);
      row.append("  ");
      AppendFixed3Padded(&row, static_cast<double>(prof.self_ns) / 1e6, 10);
      row.push_back('\n');
      writer.Append(row);
    }
  }
  writer.Flush();
  if (bad_lines > 0) {
    std::fprintf(stderr, "warning: %lld malformed lines skipped\n", bad_lines);
  }
  return 0;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
