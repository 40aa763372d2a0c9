// SelfTuner: the wall-clock SelfAnalyzer for the live runtime.
//
// Same algorithm as src/runtime/self_analyzer, but measuring real iteration
// times on a running process: baseline iterations with few workers, then
// time-with-P, Amdahl-factor normalization, and a PerfReport published for
// the in-process resource manager. Iterations are timed on the tuner's clock
// (Now()): the host's monotonic clock, or an injected one.
#ifndef SRC_RT_SELF_TUNER_H_
#define SRC_RT_SELF_TUNER_H_

#include <functional>
#include <mutex>
#include <optional>

#include "src/runtime/self_analyzer.h"

namespace pdpa {

class SelfTuner {
 public:
  // Monotonic time in seconds.
  using Clock = std::function<double()>;

  struct Params {
    int baseline_iterations = 2;
    int baseline_width = 1;
    double amdahl_factor = 0.95;
  };

  // `clock` times the iterations; empty reads the host's monotonic clock. A
  // test injects a deterministic one. Called from the application's thread.
  SelfTuner(JobId job, Params params, Clock clock = {});

  // The current time on this tuner's clock; an iteration's wall time is the
  // difference of two readings.
  double Now() const;

  // Width the application should use for the next iteration: the baseline
  // width until the baseline is measured, then `allocated`.
  int WidthFor(int allocated) const;

  // Records one completed iteration executed with `width` workers.
  void OnIteration(double wall_seconds, int width);

  bool baseline_done() const;
  double baseline_seconds() const;

  // Latest report, if any; thread-safe (the RM thread polls this).
  std::optional<PerfReport> LatestReport() const;

 private:
  JobId job_;
  Params params_;
  Clock clock_;

  mutable std::mutex mutex_;
  bool baseline_done_ = false;
  int baseline_samples_ = 0;
  double baseline_sum_s_ = 0.0;
  double baseline_s_ = 0.0;
  std::optional<PerfReport> latest_;
};

}  // namespace pdpa

#endif  // SRC_RT_SELF_TUNER_H_
