#include "src/rt/process_rm.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/runtime/periodicity_detector.h"

namespace pdpa {

RtApplication::RtApplication(JobId id, std::string name,
                             std::unique_ptr<IterativeKernel> kernel, int iterations, int request,
                             SelfTuner::Params tuner_params)
    : RtApplication(id, std::move(name), std::move(kernel), iterations, request, tuner_params,
                    Options{}) {}

RtApplication::RtApplication(JobId id, std::string name,
                             std::unique_ptr<IterativeKernel> kernel, int iterations, int request,
                             SelfTuner::Params tuner_params, Options options)
    : id_(id),
      name_(std::move(name)),
      kernel_(std::move(kernel)),
      iterations_(iterations),
      request_(request),
      tuner_(id, tuner_params, options.clock),
      team_(request),
      options_(options) {
  PDPA_CHECK(kernel_ != nullptr);
  PDPA_CHECK_GE(iterations, 1);
  PDPA_CHECK_GE(request, 1);
  PDPA_CHECK_GE(options.loops_per_iteration, 1);
}

void RtApplication::Run() {
  if (options_.detect_iterations_with_dpd) {
    RunWithDpd();
  } else {
    RunExplicit();
  }
  finished_.store(true);
}

void RtApplication::RunExplicit() {
  for (int iter = 0; iter < iterations_; ++iter) {
    const int width = std::clamp(tuner_.WidthFor(allocated_.load()), 1, team_.max_width());
    const double start = tuner_.Now();
    kernel_->RunSerialPart();
    for (int loop = 0; loop < options_.loops_per_iteration; ++loop) {
      team_.ParallelRegion(width, [&](int worker, int w) { kernel_->RunChunk(worker, w); });
    }
    const double wall_s = tuner_.Now() - start;
    tuner_.OnIteration(std::max(1e-9, wall_s), width);
    completed_iterations_.fetch_add(1);
  }
}

void RtApplication::RunWithDpd() {
  // Binary-only path: the runtime sees a flat stream of parallel regions
  // (loop id = region "address") and learns the outer-loop period with the
  // DPD; only then can it time iterations for the SelfTuner.
  PeriodicityDetector dpd;
  double boundary_time = tuner_.Now();
  bool have_boundary = false;
  int boundary_width = 1;
  int width = std::clamp(tuner_.WidthFor(allocated_.load()), 1, team_.max_width());
  const std::uint64_t loop_id_base = 0x1000 + static_cast<std::uint64_t>(id_) * 0x100;

  for (int iter = 0; iter < iterations_; ++iter) {
    kernel_->RunSerialPart();
    for (int loop = 0; loop < options_.loops_per_iteration; ++loop) {
      team_.ParallelRegion(width, [&](int worker, int w) { kernel_->RunChunk(worker, w); });
      if (dpd.OnLoopEvent(loop_id_base + static_cast<std::uint64_t>(loop))) {
        const double now = tuner_.Now();
        if (have_boundary) {
          const double wall_s = now - boundary_time;
          // Attribute the period to the width in effect during it; skip
          // periods spanning a resize (the simulator marks those "tainted";
          // here the width only changes at boundaries, so compare).
          if (boundary_width == width) {
            tuner_.OnIteration(std::max(1e-9, wall_s), width);
          }
          detected_boundaries_.fetch_add(1);
        }
        boundary_time = now;
        have_boundary = true;
        // Width changes take effect at detected iteration boundaries; the
        // upcoming period runs (and is attributed to) the new width.
        width = std::clamp(tuner_.WidthFor(allocated_.load()), 1, team_.max_width());
        boundary_width = width;
      }
    }
    completed_iterations_.fetch_add(1);
  }
}

InProcessRm::InProcessRm(Params params) : params_(params) {
  PDPA_CHECK_GE(params.cpu_budget, 1);
  PDPA_CHECK_GT(params.quantum_ms, 0.0);
}

InProcessRm::~InProcessRm() = default;

void InProcessRm::AddApplication(std::unique_ptr<RtApplication> app) {
  PDPA_CHECK(!ran_);
  PDPA_CHECK(app != nullptr);
  Entry entry;
  entry.automaton = std::make_unique<PdpaAutomaton>(params_.pdpa, app->request());
  entry.app = std::move(app);
  entries_.push_back(std::move(entry));
}

int InProcessRm::FreeCpus() const {
  int used = 0;
  for (const Entry& entry : entries_) {
    if (entry.started && !entry.app->finished()) {
      used += entry.app->allocated();
    }
  }
  return std::max(0, params_.cpu_budget - used);
}

bool InProcessRm::ShouldAdmitNext() const {
  int running = 0;
  bool all_settled = true;
  bool any_bad = false;
  for (const Entry& entry : entries_) {
    if (entry.started && !entry.app->finished()) {
      ++running;
      all_settled = all_settled && entry.automaton->Settled();
      any_bad = any_bad || entry.automaton->BadPerformance();
    }
  }
  PdpaMlParams ml;
  ml.default_ml = params_.default_ml;
  return PdpaShouldAdmit(ml, FreeCpus(), running, all_settled, any_bad);
}

void InProcessRm::Run() {
  PDPA_CHECK(!ran_);
  ran_ = true;
  PDPA_CHECK(!entries_.empty());

  const int initial_ml =
      params_.default_ml > 0 ? params_.default_ml : static_cast<int>(entries_.size());

  std::vector<std::thread> app_threads(entries_.size());
  int running_now = 0;
  auto admit = [&](std::size_t index) {
    Entry& entry = entries_[index];
    const int free = std::max(1, FreeCpus());
    const int initial = entry.automaton->OnJobStart(free);
    entry.app->set_allocated(initial);
    entry.final_alloc = initial;
    entry.started = true;
    app_threads[index] = std::thread([&entry] { entry.app->Run(); });
  };

  // Initial admission credit.
  for (std::size_t i = 0; i < entries_.size() && static_cast<int>(i) < initial_ml; ++i) {
    admit(i);
  }

  // PDPA decision loop.
  while (true) {
    // Coordinated admission of queued applications.
    if (params_.default_ml > 0) {
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].started && ShouldAdmitNext()) {
          admit(i);
        }
      }
    }
    running_now = 0;
    for (const Entry& entry : entries_) {
      if (entry.started && !entry.app->finished()) {
        ++running_now;
      }
    }
    max_concurrency_ = std::max(max_concurrency_, running_now);

    bool all_done = true;
    for (Entry& entry : entries_) {
      if (!entry.started) {
        all_done = false;
        continue;
      }
      if (entry.app->finished()) {
        continue;
      }
      all_done = false;
      const auto report = entry.app->tuner().LatestReport();
      if (!report.has_value()) {
        continue;
      }
      // Deduplicate: only evaluate a measurement once.
      if (report->speedup == entry.last_speedup_seen && report->procs == entry.last_procs_seen) {
        continue;
      }
      entry.last_speedup_seen = report->speedup;
      entry.last_procs_seen = report->procs;
      const PdpaDecision decision =
          entry.automaton->OnReport(report->speedup, report->procs, FreeCpus());
      if (decision.changed) {
        entry.app->set_allocated(decision.next_alloc);
        entry.final_alloc = decision.next_alloc;
      } else {
        entry.final_alloc = entry.app->allocated();
      }
    }
    if (all_done) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(params_.quantum_ms));
  }

  for (std::thread& t : app_threads) {
    if (t.joinable()) {
      t.join();
    }
  }
}

int InProcessRm::FinalAllocation(JobId job) const {
  for (const Entry& entry : entries_) {
    if (entry.app->id() == job) {
      return entry.final_alloc;
    }
  }
  return 0;
}

const PdpaAutomaton* InProcessRm::AutomatonFor(JobId job) const {
  for (const Entry& entry : entries_) {
    if (entry.app->id() == job) {
      return entry.automaton.get();
    }
  }
  return nullptr;
}

}  // namespace pdpa
