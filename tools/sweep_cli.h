// The front end pdpa_sim and pdpa_batch share. Both tools turn their flags
// into a SweepGrid plus SweepOptions, run RunSweep (pdpa_sim as a one-cell
// sweep), and hand the results to one writer for the per-cell recordings,
// the profile and the Perfetto trace.
//
// Shared flags: --seed --untuned --nodes --cpus_per_node --placement
// --shards --log_level --events_out --timeseries_out --counters
// --counters_out --trace_out --prof --prof_out. The axis flags stay with
// each tool (--workload in pdpa_sim, --workloads in pdpa_batch, ...).
//
// Usage errors (unknown flags, malformed or out-of-range values, unknown
// names) print one message naming the flag and make the tool exit 2.
#ifndef TOOLS_SWEEP_CLI_H_
#define TOOLS_SWEEP_CLI_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/workload/sweep.h"

namespace pdpa {

// Where a sweep's outputs go; empty paths and false switches are off.
struct SweepOutputs {
  // Per-cell recordings. With cell_prefixes (pdpa_batch) each value is a
  // prefix completed with "<cell>.jsonl" / ".csv" / ".txt"; without it
  // (pdpa_sim, which runs one cell) each value is the file path itself.
  std::string events_out;
  std::string timeseries_out;
  std::string counters_out;
  bool cell_prefixes = false;
  // Print each cell's counter snapshot.
  bool counters = false;
  // One Chrome/Perfetto trace of the whole sweep.
  std::string trace_out;
  // The merged host-time profile, as a table and/or JSONL.
  bool prof = false;
  std::string prof_out;
};

struct SweepCli {
  SweepGrid grid;
  SweepOptions options;
  SweepOutputs outputs;
};

// Parses the shared flags into `cli` (grid.seeds becomes {--seed}; the
// capture switches of cli->options follow the requested outputs) and sets
// the log level. Returns false after printing a usage error.
bool ParseSharedFlags(FlagSet* flags, SweepCli* cli);

// Usage-error checks: print "--<flag> must be ..." and return false.
bool RequireAtLeast(const char* flag, int value, int min);
bool RequirePositive(const char* flag, double value);

// Rejects flags no getter consumed and malformed values. Call after the
// tool's last Get*, before running anything.
bool CheckFlags(const FlagSet& flags);

// Opens every single-file destination once, so an unwritable path fails
// before the sweep runs. Returns false after printing the error.
bool PreflightOutputs(const SweepOutputs& outputs);

// RunSweep, logging what the shared-prefix fork did at info level.
std::vector<SweepCellResult> RunCliSweep(const SweepCli& cli);

// Writes the trace, the per-cell recordings, the profile and the counter
// dumps. Tables and "written to" lines go to `messages` (stdout for
// pdpa_sim, stderr for pdpa_batch, whose stdout is the CSV). `tool` names
// the profile JSONL's producer. Returns false when a file cannot be opened.
bool WriteSweepOutputs(const SweepOutputs& outputs, const char* tool,
                       const std::vector<SweepCellResult>& results, std::FILE* messages);

}  // namespace pdpa

#endif  // TOOLS_SWEEP_CLI_H_
