#include "src/qs/queuing_system.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

QueuingSystem::QueuingSystem(Simulation* sim, ResourceManager* rm, std::vector<JobSpec> workload,
                             QueueOrder order)
    : QueuingSystem(sim, rm, std::move(workload), Options{order, false}) {}

QueuingSystem::QueuingSystem(Simulation* sim, ResourceManager* rm, std::vector<JobSpec> workload,
                             Options options)
    : QueuingSystem(sim, rm,
                    std::make_shared<const std::vector<JobSpec>>(std::move(workload)), options) {}

QueuingSystem::QueuingSystem(Simulation* sim, ResourceManager* rm,
                             std::shared_ptr<const std::vector<JobSpec>> workload, Options options)
    : sim_(sim), rm_(rm), workload_(std::move(workload)), options_(options) {
  PDPA_CHECK(workload_ != nullptr);
  PDPA_CHECK(sim != nullptr);
  PDPA_CHECK(rm != nullptr);
  events_ = sim->sinks().event_log;
  Registry& registry = sim->registry();
  submits_ = registry.counter("qs.submits");
  starts_ = registry.counter("qs.starts");
  finishes_ = registry.counter("qs.finishes");
  holds_ = registry.counter("qs.holds");
  // Queue wait in seconds.
  wait_seconds_ =
      registry.histogram("qs.wait_seconds", {0.0, 1.0, 5.0, 15.0, 60.0, 300.0, 900.0});
}

JobSpec QueuingSystem::PopNext() {
  PDPA_CHECK(!queue_.empty());
  std::size_t pick = 0;
  if (options_.order == QueueOrder::kShortestDemandFirst) {
    double best_demand = 0.0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const JobSpec& spec = queue_[i];
      const AppProfile& profile = CachedProfile(spec.app_class);
      const double demand = profile.IdealExecSeconds(spec.request) * spec.request;
      if (i == 0 || demand < best_demand) {
        best_demand = demand;
        pick = i;
      }
    }
  }
  const JobSpec spec = queue_[pick];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  return spec;
}

void QueuingSystem::Start() {
  PDPA_CHECK(!started_);
  started_ = true;
  rm_->set_job_finish_callback(
      [this](JobId job, SimTime finish_time) { OnJobFinish(job, finish_time); });
  rm_->set_state_change_callback([this](SimTime now) { TryStartJobs(now); });
  // Index capture, not a JobSpec copy per closure: the workload vector is
  // immutable for the lifetime of the run (shared with forked cells).
  for (std::size_t i = 0; i < workload_->size(); ++i) {
    sim_->events().Schedule((*workload_)[i].submit, [this, i] { OnArrival((*workload_)[i]); });
  }
}

void QueuingSystem::OnArrival(const JobSpec& spec) {
  queue_.push_back(spec);
  submits_->Increment();
  if (events_ != nullptr) {
    events_->JobSubmit(sim_->now(), spec.id, AppClassName(spec.app_class), spec.request,
                       spec.rigid);
  }
  TryStartJobs(sim_->now());
}

void QueuingSystem::TryStartJobs(SimTime now) {
  while (!queue_.empty()) {
    const bool admit = rm_->CanStartJob();
    const bool fits = !(options_.hold_rigid_until_fit && queue_.front().rigid &&
                        rm_->machine().FreeCpus() < queue_.front().request);
    if (!admit || !fits) {
      // Record the coordination decision to hold the queue, once per
      // (running, queued) state, so Fig. 8-style ML analysis can see when
      // the policy said "no".
      const std::pair<int, int> key{running_, queued()};
      if (key != last_hold_) {
        last_hold_ = key;
        holds_->Increment();
        if (events_ != nullptr) {
          events_->AdmitHold(now, running_, queued(), rm_->machine().FreeCpus());
        }
        PDPA_LOG(Debug) << "queue held: running=" << running_ << " queued=" << queued()
                        << " free_cpus=" << rm_->machine().FreeCpus();
      }
      break;
    }
    const JobSpec spec = PopNext();

    JobOutcome outcome;
    outcome.id = spec.id;
    outcome.app_class = spec.app_class;
    outcome.request = spec.request;
    outcome.submit = spec.submit;
    outcome.start = now;
    in_flight_[spec.id] = outcome;

    ++running_;
    max_ml_ = std::max(max_ml_, running_);
    last_hold_ = {-1, -1};
    RecordMl(now);
    starts_->Increment();
    wait_seconds_->Observe(TimeToSeconds(now - spec.submit));
    rm_->StartJob(spec.id, CachedProfile(spec.app_class), spec.request, now, spec.rigid);
    if (events_ != nullptr) {
      events_->JobStart(now, spec.id, AppClassName(spec.app_class), spec.request,
                        rm_->AllocationOf(spec.id), running_, queued());
    }
  }
}

void QueuingSystem::OnJobFinish(JobId job, SimTime finish_time) {
  const auto it = in_flight_.find(job);
  PDPA_CHECK(it != in_flight_.end()) << "finish for unknown job " << job;
  JobOutcome outcome = it->second;
  in_flight_.erase(it);
  outcome.finish = finish_time;
  outcomes_.push_back(outcome);
  const double exec_s = outcome.ExecSeconds();
  if (exec_s > 0.0) {
    slowdown_[outcome.app_class].Observe(outcome.ResponseSeconds() / exec_s);
  }
  --running_;
  finishes_->Increment();
  if (events_ != nullptr) {
    events_->JobFinish(finish_time, job, outcome.submit, outcome.start);
  }
  RecordMl(finish_time);
  // The RM's state-change callback fires after this, starting queued jobs.
}

void QueuingSystem::RecordMl(SimTime now) { ml_timeline_.emplace_back(now, running_); }

}  // namespace pdpa
