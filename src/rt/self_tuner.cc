#include "src/rt/self_tuner.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/prof.h"

namespace pdpa {

SelfTuner::SelfTuner(JobId job, Params params, Clock clock)
    : job_(job), params_(params), clock_(std::move(clock)) {
  PDPA_CHECK_GE(params.baseline_iterations, 1);
  PDPA_CHECK_GE(params.baseline_width, 1);
}

double SelfTuner::Now() const {
  if (clock_) {
    return clock_();
  }
  return static_cast<double>(prof::NowNanos()) * 1e-9;
}

int SelfTuner::WidthFor(int allocated) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!baseline_done_) {
    return std::min(allocated, params_.baseline_width);
  }
  return allocated;
}

void SelfTuner::OnIteration(double wall_seconds, int width) {
  PDPA_CHECK_GT(wall_seconds, 0.0);
  PDPA_CHECK_GE(width, 1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!baseline_done_) {
    if (width <= params_.baseline_width) {
      baseline_sum_s_ += wall_seconds;
      ++baseline_samples_;
      if (baseline_samples_ >= params_.baseline_iterations) {
        baseline_s_ = baseline_sum_s_ / baseline_samples_;
        baseline_done_ = true;
      }
    }
    return;
  }
  PerfReport report;
  report.job = job_;
  report.procs = width;
  report.speedup =
      NormalizedSpeedup(baseline_s_, wall_seconds, params_.baseline_width, params_.amdahl_factor);
  report.efficiency = report.speedup / width;
  report.when = 0;
  latest_ = report;
}

bool SelfTuner::baseline_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return baseline_done_;
}

double SelfTuner::baseline_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return baseline_s_;
}

std::optional<PerfReport> SelfTuner::LatestReport() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latest_;
}

}  // namespace pdpa
