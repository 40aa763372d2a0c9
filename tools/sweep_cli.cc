#include "tools/sweep_cli.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <string_view>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/prof.h"
#include "src/obs/trace_export.h"

namespace pdpa {
namespace {

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

// CSV rows that start with `prefix` ("\napp," / "\nmachine,"; every row
// follows the header's newline).
std::size_t CountRows(const std::string& csv, std::string_view prefix) {
  std::size_t rows = 0;
  for (std::size_t at = csv.find(prefix); at != std::string::npos;
       at = csv.find(prefix, at + 1)) {
    ++rows;
  }
  return rows;
}

// Cell i's sim-time tracks are process 1 + i (a one-cell run is process 1);
// with a captured profile the host-time worker tracks follow as one more
// process: one thread row per sweep worker, one complete span per cell,
// timestamps relative to the earliest cell start.
bool WriteTrace(const std::string& path, const std::vector<SweepCellResult>& results,
                bool host_tracks, std::FILE* messages) {
  std::ofstream stream(path);
  if (!stream) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  TraceEventWriter writer(&stream);
  long long bad_lines = 0;
  for (const SweepCellResult& r : results) {
    bad_lines += ExportSimTrace(r.events_jsonl, 1 + static_cast<long long>(r.cell.index),
                                r.cell.name, &writer);
  }
  if (host_tracks && !results.empty()) {
    const long long host_pid = 1 + static_cast<long long>(results.size());
    writer.ProcessName(host_pid, "sweep host");
    long long epoch_ns = results.front().host_begin_ns;
    for (const SweepCellResult& r : results) {
      epoch_ns = std::min(epoch_ns, r.host_begin_ns);
    }
    std::map<int, bool> workers_named;
    for (const SweepCellResult& r : results) {
      if (!workers_named[r.worker]) {
        workers_named[r.worker] = true;
        writer.ThreadName(host_pid, r.worker, "worker " + std::to_string(r.worker));
      }
      writer.Complete(host_pid, r.worker, r.cell.name, (r.host_begin_ns - epoch_ns) / 1000,
                      (r.host_end_ns - r.host_begin_ns) / 1000);
    }
  }
  writer.Finish();
  if (bad_lines > 0) {
    std::fprintf(stderr, "trace export skipped %lld malformed event lines\n", bad_lines);
  }
  std::fprintf(messages, "trace: %lld trace events written to %s\n", writer.events_written(),
               path.c_str());
  return true;
}

}  // namespace

bool RequireAtLeast(const char* flag, int value, int min) {
  if (value < min) {
    std::fprintf(stderr, "--%s must be >= %d (got %d)\n", flag, min, value);
    return false;
  }
  return true;
}

bool RequirePositive(const char* flag, double value) {
  if (!(value > 0.0)) {
    std::fprintf(stderr, "--%s must be > 0 (got %g)\n", flag, value);
    return false;
  }
  return true;
}

bool ParseSharedFlags(FlagSet* flags, SweepCli* cli) {
  const std::string log_level = flags->GetString("log_level", "warning");
  LogLevel level = LogLevel::kWarning;
  if (!ParseLogLevel(log_level, &level)) {
    std::fprintf(stderr, "unknown --log_level %s\n", log_level.c_str());
    return false;
  }
  SetLogLevel(level);

  SweepGrid& grid = cli->grid;
  const int seed = flags->GetInt("seed", 42);
  grid.seeds = {static_cast<std::uint64_t>(seed)};
  grid.base.untuned = flags->GetBool("untuned", false);
  grid.nodes = flags->GetInt("nodes", 1);
  grid.cpus_per_node = flags->GetInt("cpus_per_node", 60);
  grid.shards = flags->GetInt("shards", 1);
  if (!RequireAtLeast("seed", seed, 0) || !RequireAtLeast("nodes", grid.nodes, 1) ||
      !RequireAtLeast("cpus_per_node", grid.cpus_per_node, 1) ||
      !RequireAtLeast("shards", grid.shards, 1)) {
    return false;
  }
  grid.placements.clear();
  for (const std::string& token : SplitTokens(flags->GetString("placement", "rr"), ',')) {
    PlacementPolicy placement = PlacementPolicy::kRoundRobin;
    if (!ParsePlacementPolicy(token, &placement)) {
      std::fprintf(stderr, "unknown --placement %s\n", token.c_str());
      return false;
    }
    grid.placements.push_back(placement);
  }

  SweepOutputs& outputs = cli->outputs;
  outputs.events_out = flags->GetString("events_out", "");
  outputs.timeseries_out = flags->GetString("timeseries_out", "");
  outputs.counters_out = flags->GetString("counters_out", "");
  outputs.counters = flags->GetBool("counters", false);
  outputs.trace_out = flags->GetString("trace_out", "");
  outputs.prof = flags->GetBool("prof", false);
  outputs.prof_out = flags->GetString("prof_out", "");

  SweepOptions& options = cli->options;
  // The trace exporter replays the event log, so --trace_out captures it too.
  options.capture_events = !outputs.events_out.empty() || !outputs.trace_out.empty();
  options.capture_timeseries = !outputs.timeseries_out.empty();
  options.capture_counters = outputs.counters || !outputs.counters_out.empty();
  options.capture_prof = outputs.prof || !outputs.prof_out.empty();
  return true;
}

bool CheckFlags(const FlagSet& flags) {
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return false;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "malformed flag value (see --help)\n");
    return false;
  }
  return true;
}

bool PreflightOutputs(const SweepOutputs& outputs) {
  std::vector<const std::string*> paths = {&outputs.trace_out, &outputs.prof_out};
  if (!outputs.cell_prefixes) {
    paths.insert(paths.end(),
                 {&outputs.events_out, &outputs.timeseries_out, &outputs.counters_out});
  }
  for (const std::string* path : paths) {
    if (!path->empty() && !std::ofstream(*path)) {
      std::fprintf(stderr, "cannot open %s\n", path->c_str());
      return false;
    }
  }
  return true;
}

std::vector<SweepCellResult> RunCliSweep(const SweepCli& cli) {
  SweepOptions options = cli.options;
  ForkStats fork_stats;
  options.fork_stats = &fork_stats;
  std::vector<SweepCellResult> results = RunSweep(cli.grid, options);
  PDPA_LOG(Info) << "fork: " << fork_stats.prefixes_built << "/" << fork_stats.groups
                 << " group prefixes built, " << fork_stats.forked_cells << " cells forked, "
                 << fork_stats.cold_cells << " cold";
  return results;
}

bool WriteSweepOutputs(const SweepOutputs& outputs, const char* tool,
                       const std::vector<SweepCellResult>& results, std::FILE* messages) {
  const bool want_prof = outputs.prof || !outputs.prof_out.empty();
  if (!outputs.trace_out.empty() &&
      !WriteTrace(outputs.trace_out, results, want_prof, messages)) {
    return false;
  }
  const auto path = [&outputs](const std::string& value, const SweepCellResult& r,
                               const char* ext) {
    return outputs.cell_prefixes ? value + r.cell.name + ext : value;
  };
  for (const SweepCellResult& r : results) {
    if (!outputs.events_out.empty()) {
      const std::string file = path(outputs.events_out, r, ".jsonl");
      if (!WriteFile(file, r.events_jsonl)) {
        return false;
      }
      std::fprintf(messages, "event log: %lld events written to %s\n",
                   static_cast<long long>(
                       std::count(r.events_jsonl.begin(), r.events_jsonl.end(), '\n')),
                   file.c_str());
    }
    if (!outputs.timeseries_out.empty()) {
      const std::string file = path(outputs.timeseries_out, r, ".csv");
      if (!WriteFile(file, r.timeseries_csv)) {
        return false;
      }
      if (r.cell.nodes > 1) {
        std::fprintf(messages, "time-series: merged cluster CSV written to %s\n", file.c_str());
      } else {
        std::fprintf(messages, "time-series: %zu app windows, %zu machine samples written to %s\n",
                     CountRows(r.timeseries_csv, "\napp,"),
                     CountRows(r.timeseries_csv, "\nmachine,"),
                     file.c_str());
      }
    }
    if (!outputs.counters_out.empty()) {
      const std::string file = path(outputs.counters_out, r, ".txt");
      if (!WriteFile(file, r.counters.ToString())) {
        return false;
      }
      std::fprintf(messages, "counters: snapshot written to %s\n", file.c_str());
    }
  }
  if (want_prof) {
    const Profiler merged = MergeProfiles(results);
    if (outputs.prof) {
      std::string table;
      AppendProfTable(merged, &table);
      std::fprintf(messages, "\nhost-time profile (hits are deterministic; times are not):\n%s",
                   table.c_str());
    }
    if (!outputs.prof_out.empty()) {
      std::string jsonl;
      AppendProfJsonl(merged, tool, &jsonl);
      if (!WriteFile(outputs.prof_out, jsonl)) {
        return false;
      }
      std::fprintf(messages, "profile: %lld span hits written to %s\n", merged.TotalHits(),
                   outputs.prof_out.c_str());
    }
  }
  if (outputs.counters) {
    // One section per cell: each run has its own registry, so these are
    // genuinely per-cell values, not a cumulative grid total.
    for (const SweepCellResult& r : results) {
      if (outputs.cell_prefixes) {
        std::fprintf(messages, "\ncounters (%s):\n%s", r.cell.name.c_str(),
                     r.counters.ToString().c_str());
      } else {
        std::fprintf(messages, "\ncounters:\n%s", r.counters.ToString().c_str());
      }
    }
  }
  return true;
}

}  // namespace pdpa
