// Per-quantum allocation time-series — the third leg of the flight recorder.
//
// The resource manager pushes two kinds of points on the scheduler quantum:
//   * one app point per running job: the *time-weighted* processor
//     allocation over the elapsed window plus the latest measured speedup /
//     efficiency and automaton state, and
//   * one machine point: free CPUs, running jobs, queue depth, utilization.
//
// App windows partition each job's lifetime exactly (a final partial window
// is flushed at job completion), so summing alloc * (t_end - t_start) over a
// job's rows reproduces the RM's allocation integral — and therefore the
// avg_alloc reported by ComputeMetrics — to floating-point precision. That
// invariant is what makes the CSV trustworthy for Fig. 5/8-style plots.
#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/mutex.h"
#include "src/common/time_types.h"

namespace pdpa {

class TimeSeriesSampler {
 public:
  struct AppPoint {
    SimTime t_start = 0;
    SimTime t_end = 0;
    JobId job = kIdleJob;
    // Time-weighted mean allocation over [t_start, t_end).
    double alloc = 0.0;
    // Latest SelfAnalyzer measurement (0 before the first report).
    double speedup = 0.0;
    double efficiency = 0.0;
    // PDPA automaton state name; empty for policies without one.
    std::string state;
  };

  struct MachinePoint {
    SimTime t = 0;
    int free_cpus = 0;
    int running = 0;
    int queued = 0;
    // Instantaneous (owned CPUs / total CPUs).
    double utilization = 0.0;
  };

  void AddApp(AppPoint point) {
    confinement_.AssertConfined("TimeSeriesSampler");
    apps_.push_back(std::move(point));
  }
  void AddMachine(MachinePoint point) {
    confinement_.AssertConfined("TimeSeriesSampler");
    machine_.push_back(point);
  }

  const std::vector<AppPoint>& apps() const { return apps_; }
  const std::vector<MachinePoint>& machine() const { return machine_; }
  bool empty() const { return apps_.empty() && machine_.empty(); }

  // Integral of allocation over time per job, in cpu-microseconds —
  // comparable with ResourceManager::alloc_integral_us().
  std::map<JobId, double> AllocIntegralUs() const;

  // Appends the long-format CSV to *out: one row per point, app and machine
  // rows interleaved in recording order under a shared header. Rows are
  // formatted straight into the string, which may keep spare capacity: a
  // caller that holds the result copies it out of a reused buffer.
  void WriteCsv(std::string* out) const;

  void Clear();

  // Releases the audit-build thread-confinement binding (see
  // EventLog::HandoffConfinement); the cluster engine calls this when a
  // node's sampler moves between a shard worker and the controller.
  void HandoffConfinement() { confinement_.Handoff(); }

 private:
  std::vector<AppPoint> apps_;
  std::vector<MachinePoint> machine_;
  // Per-run sink, single-writer by construction (see EventLog); audit
  // builds verify the confinement instead of paying for a mutex.
  ThreadConfinementChecker confinement_;
};

// Cluster CSV: the single-machine schema with a leading "node" column,
// k-way merging one sampler per node by row key time (t_end for app
// windows, t for machine samples), ties resolved by node index and, within
// one node, by the same recording-order rule WriteCsv uses. Row bytes after
// the node column are identical to WriteCsv's, so a 1-node cluster CSV is
// the single-machine CSV with "0," prefixed to every data row. Appends to
// *out as WriteCsv does.
void WriteClusterTimeSeriesCsv(const std::vector<const TimeSeriesSampler*>& nodes,
                               std::string* out);

}  // namespace pdpa

#endif  // SRC_OBS_TIMESERIES_H_
