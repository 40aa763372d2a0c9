// NANOS SelfAnalyzer: runtime speedup measurement.
//
// The SelfAnalyzer exploits the iterative structure of the application: it
// first runs a few iterations of the outer loop on a small number of
// processors (the *baseline*), then measures each iteration with the P
// allocated processors. The speedup is the ratio time-with-baseline /
// time-with-P, normalized to "versus one processor" with an Amdahl factor.
// Only *clean* iterations (constant processor count, no reconfiguration in
// flight) produce measurements.
#ifndef SRC_RUNTIME_SELF_ANALYZER_H_
#define SRC_RUNTIME_SELF_ANALYZER_H_

#include <functional>

#include "src/app/application.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/time_types.h"
#include "src/obs/counters.h"

namespace pdpa {

// One performance report delivered to the processor scheduler.
struct PerfReport {
  JobId job = kIdleJob;
  // Processor count the measurement was taken with.
  int procs = 0;
  // Estimated speedup versus one processor.
  double speedup = 1.0;
  // speedup / procs.
  double efficiency = 1.0;
  SimTime when = 0;
};

struct SelfAnalyzerParams {
  // Clean iterations measured with the baseline processor count before the
  // application is released to its full allocation.
  int baseline_iterations = 2;
  // Amdahl normalization factor (AF in the paper): assumed efficiency at the
  // baseline processor count, used to convert "speedup versus baseline" into
  // "speedup versus one processor".
  double amdahl_factor = 0.95;
  // Multiplicative measurement noise (standard deviation) on iteration
  // timings. Models timer jitter and interference.
  double noise_sigma = 0.02;
  // Clean iterations averaged before each report.
  int measure_iterations = 1;
};

// The estimator core, shared with the wall-clock SelfTuner (src/rt):
// speedup versus one processor from the mean baseline iteration time
// (measured with `baseline_procs` processors) and the mean iteration time
// with P processors. The baseline is assumed to run at AF * b speedup
// (Amdahl's factor), except b == 1 which is exact; the result is floored at
// 0.05.
double NormalizedSpeedup(double baseline_s, double time_with_p, int baseline_procs,
                         double amdahl_factor);

// The analyzer's instruments in one run's registry. A resource manager
// resolves them once and hands the same set to every job it starts, so
// placing a job takes no registry lookup.
struct AnalyzerCounters {
  Counter* reports = nullptr;
  Counter* dirty_iterations = nullptr;
  Counter* baselines_done = nullptr;

  static AnalyzerCounters Bind(Registry& registry);
};

class SelfAnalyzer {
 public:
  using ReportCallback = std::function<void(const PerfReport&)>;

  // `app` must outlive the analyzer, and `counters` the run's registry.
  SelfAnalyzer(Application* app, SelfAnalyzerParams params, Rng rng,
               AnalyzerCounters counters = AnalyzerCounters::Bind(Registry::Default()));

  void set_report_callback(ReportCallback callback) { on_report_ = std::move(callback); }

  // Must be called immediately before Application::Start: engages the
  // baseline processor override.
  void OnJobStart(SimTime now);

  // Feed of completed iterations from the application.
  void OnIteration(const IterationRecord& record, SimTime now);

  bool baseline_done() const { return baseline_done_; }
  // Measured per-iteration time with baseline processors (seconds).
  double baseline_time_s() const { return baseline_time_s_; }
  int baseline_procs() const { return baseline_procs_; }

 private:
  double NoisySeconds(SimDuration wall) ;

  Application* app_;
  SelfAnalyzerParams params_;
  Rng rng_;
  ReportCallback on_report_;

  int baseline_procs_ = 1;
  bool baseline_done_ = false;
  int baseline_samples_ = 0;
  double baseline_sum_s_ = 0.0;
  double baseline_time_s_ = 0.0;

  int measure_samples_ = 0;
  double measure_sum_s_ = 0.0;
  int measure_procs_ = 0;

  AnalyzerCounters counters_;
};

}  // namespace pdpa

#endif  // SRC_RUNTIME_SELF_ANALYZER_H_
