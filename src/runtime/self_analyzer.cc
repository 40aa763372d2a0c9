#include "src/runtime/self_analyzer.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

AnalyzerCounters AnalyzerCounters::Bind(Registry& registry) {
  AnalyzerCounters counters;
  counters.reports = registry.counter("analyzer.reports");
  counters.dirty_iterations = registry.counter("analyzer.dirty_iterations");
  counters.baselines_done = registry.counter("analyzer.baselines_done");
  return counters;
}

SelfAnalyzer::SelfAnalyzer(Application* app, SelfAnalyzerParams params, Rng rng,
                           AnalyzerCounters counters)
    : app_(app), params_(params), rng_(rng), counters_(counters) {
  PDPA_CHECK(app != nullptr);
  PDPA_CHECK_GE(params.baseline_iterations, 1);
  PDPA_CHECK_GE(params.measure_iterations, 1);
  PDPA_CHECK_GT(params.amdahl_factor, 0.0);
  PDPA_CHECK_LE(params.amdahl_factor, 1.0);
  Reset(rng);
}

void SelfAnalyzer::Reset(Rng rng) {
  rng_ = rng;
  baseline_procs_ = std::max(1, app_->profile().baseline_procs);
  baseline_done_ = false;
  baseline_samples_ = 0;
  baseline_sum_s_ = 0.0;
  baseline_time_s_ = 0.0;
  measure_samples_ = 0;
  measure_sum_s_ = 0.0;
  measure_procs_ = 0;
}

void SelfAnalyzer::OnJobStart(SimTime now) {
  // Run the first iterations with few processors to establish the reference
  // time. ForceProcs is a no-op cap if the allocation is already smaller.
  app_->ForceProcs(baseline_procs_, now);
}

double SelfAnalyzer::NoisySeconds(SimDuration wall) {
  const double seconds = TimeToSeconds(wall);
  if (params_.noise_sigma <= 0.0) {
    return seconds;
  }
  const double factor = std::max(0.5, rng_.Gaussian(1.0, params_.noise_sigma));
  return seconds * factor;
}

double NormalizedSpeedup(double baseline_s, double time_with_p, int baseline_procs,
                         double amdahl_factor) {
  const double versus_baseline = baseline_s / time_with_p;
  const double baseline_speedup = baseline_procs <= 1 ? 1.0 : amdahl_factor * baseline_procs;
  return std::max(0.05, versus_baseline * baseline_speedup);
}

void SelfAnalyzer::OnIteration(const IterationRecord& record) {
  if (baseline_done_) {
    Measure(record);
    return;
  }
  // Baseline phase: only clean iterations at the baseline count qualify.
  if (record.clean && record.procs == std::min(baseline_procs_, app_->allocated())) {
    baseline_sum_s_ += NoisySeconds(record.wall_time);
    ++baseline_samples_;
    if (baseline_samples_ >= params_.baseline_iterations) {
      baseline_time_s_ = baseline_sum_s_ / baseline_samples_;
      // The baseline may have run on fewer processors than requested if
      // the allocation was tiny; normalize with the count actually used.
      baseline_procs_ = record.procs;
      baseline_done_ = true;
      counters_.baselines_done->Increment();
      app_->ForceProcs(0, record.end_time);  // Release to the full allocation.
    }
  }
}

void SelfAnalyzer::OnIterationRun(const IterationRun& run) {
  PDPA_CHECK(baseline_done_);
  for (int k = 0; k < run.count; ++k) {
    Measure(run.Record(k));
  }
}

void SelfAnalyzer::Measure(const IterationRecord& record) {
  if (!record.clean) {
    // A reallocation happened mid-iteration; discard and restart the window.
    counters_.dirty_iterations->Increment();
    measure_samples_ = 0;
    measure_sum_s_ = 0.0;
    return;
  }
  if (measure_samples_ > 0 && record.procs != measure_procs_) {
    measure_samples_ = 0;
    measure_sum_s_ = 0.0;
  }
  measure_procs_ = record.procs;
  measure_sum_s_ += NoisySeconds(record.wall_time);
  ++measure_samples_;
  if (measure_samples_ < params_.measure_iterations) {
    return;
  }

  const double time_with_p = measure_sum_s_ / measure_samples_;
  measure_samples_ = 0;
  measure_sum_s_ = 0.0;
  if (time_with_p <= 0.0 || baseline_time_s_ <= 0.0) {
    return;
  }

  PerfReport report;
  report.job = app_->id();
  report.procs = record.procs;
  report.speedup =
      NormalizedSpeedup(baseline_time_s_, time_with_p, baseline_procs_, params_.amdahl_factor);
  report.efficiency = report.speedup / std::max(1, record.procs);
  report.when = record.end_time;
  counters_.reports->Increment();
  if (report_sink_ != nullptr) {
    report_sink_->push_back(report);
  }
}

}  // namespace pdpa
