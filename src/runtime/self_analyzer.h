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

#include <vector>

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

// Observes one application's iterations (attach it with
// Application::set_observer). Until its baseline is measured it may change
// the application (the baseline processor override), so it takes iterations
// one at a time; once settled it only measures, and takes a span's
// iterations as one run. Either way it draws its noise once per iteration,
// in order, so both deliveries produce the same reports, counters and
// random stream.
class SelfAnalyzer final : public IterationObserver {
 public:
  // `app` must outlive the analyzer, and `counters` the run's registry.
  SelfAnalyzer(Application* app, SelfAnalyzerParams params, Rng rng, AnalyzerCounters counters);

  // Re-initializes the analyzer in place for the job its application now
  // holds (after Application::Reset), with a fresh random stream: equal to
  // constructing it anew. Params, counters and report sink are kept.
  void Reset(Rng rng);

  // Reports are appended to `*sink` (borrowed; null drops them).
  void set_report_sink(std::vector<PerfReport>* sink) { report_sink_ = sink; }

  // Must be called immediately before Application::Start: engages the
  // baseline processor override.
  void OnJobStart(SimTime now);

  // IterationObserver: the application's completed iterations.
  void OnIteration(const IterationRecord& record) override;
  bool batches_runs() const override { return baseline_done_; }
  void OnIterationRun(const IterationRun& run) override;

  bool baseline_done() const { return baseline_done_; }
  // Measured per-iteration time with baseline processors (seconds).
  double baseline_time_s() const { return baseline_time_s_; }
  int baseline_procs() const { return baseline_procs_; }
  // The noise stream, as far as it has been drawn.
  const Rng& rng() const { return rng_; }

 private:
  double NoisySeconds(SimDuration wall);
  // One iteration after the baseline: measure, and report when the window
  // is full. Never touches the application.
  void Measure(const IterationRecord& record);

  Application* app_;
  SelfAnalyzerParams params_;
  Rng rng_;
  std::vector<PerfReport>* report_sink_ = nullptr;

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
