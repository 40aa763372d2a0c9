#include "src/rm/resource_manager.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/common/fmt.h"

namespace pdpa {
namespace {

// Boundaries MaterialStop inspects below a settled job's completion for its
// penultimate drain tick.
constexpr int kDrainWalkCap = 64;

}  // namespace

// Audit hook: active only in PDPA_AUDIT builds (the CI Debug job); expands
// to nothing otherwise so the hot path carries no trace of it.
#ifdef PDPA_AUDIT
#define PDPA_RM_AUDIT(where) AuditInvariants(where)
#else
#define PDPA_RM_AUDIT(where) \
  do {                       \
  } while (false)
#endif

ResourceManager::ResourceManager(Params params, std::unique_ptr<SchedulingPolicy> policy,
                                 Simulation* sim, Rng rng)
    : params_(params),
      policy_(std::move(policy)),
      sim_(sim),
      rng_(rng),
      machine_(params.num_cpus) {
  PDPA_CHECK(policy_ != nullptr);
  PDPA_CHECK(sim_ != nullptr);
  PDPA_CHECK_GT(params.tick, 0);
  PDPA_CHECK_GE(params.quantum, params.tick);
  const Simulation::Sinks& sinks = sim_->sinks();
  events_ = sinks.event_log;
  timeseries_ = sinks.timeseries;
  trace_ = sinks.trace;
  profiler_ = sinks.profiler;
  elide_ = !params_.exact_ticks && !policy_->is_time_sharing() && trace_ == nullptr;
  quantum_passive_ = elide_ && policy_->quantum_passive();
  fast_path_ = params_.boundary_batch && quantum_passive_ && policy_->report_passive() &&
               events_ == nullptr && timeseries_ == nullptr;
  // The whole stack of one run shares the simulation's registry, which is
  // what isolates concurrent sweep cells from each other.
  Registry& registry = sim_->registry();
  policy_->Attach(registry, events_);
  jobs_started_ = registry.counter("rm.jobs_started");
  jobs_finished_ = registry.counter("rm.jobs_finished");
  reallocations_ = registry.counter("rm.reallocations");
  plans_applied_ = registry.counter("rm.plans_applied");
  cpu_handoffs_ = registry.counter("rm.cpu_handoffs");
  cpu_migrations_ = registry.counter("rm.cpu_migrations");
  perf_reports_ = registry.counter("rm.perf_reports");
  ticks_fired_ = registry.counter("rm.ticks");
  ticks_elided_ = registry.counter("rm.ticks_elided");
  free_cpus_gauge_ = registry.gauge("machine.free_cpus");
  report_efficiency_ =
      registry.histogram("rm.report_efficiency", {0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2});
}

void ResourceManager::Start() {
  PDPA_CHECK(!tick_active_);
  tick_origin_ = sim_->now();
  advanced_to_ = tick_origin_;
  next_ts_sample_ = sim_->now() + params_.quantum;
  // The tick is scheduled before the quantum task so that when tick ==
  // quantum their first firings keep the historical tick-then-quantum order.
  tick_active_ = true;
  ScheduleTickAt(tick_origin_ + params_.tick);
  // A quantum-passive policy's OnQuantum is a guaranteed no-op, so under
  // elision the periodic task would only force materializations that change
  // nothing observable; skip it entirely and let the horizon run free.
  if (!quantum_passive_) {
    quantum_task_ = sim_->SchedulePeriodic(sim_->now() + params_.quantum, params_.quantum,
                                           [this](SimTime now) { OnQuantum(now); });
  }
}

ResourceManager::ResumeState ResourceManager::ResumeStateNow() const {
  PDPA_CHECK(tick_active_);
  ResumeState state;
  state.origin = tick_origin_;
  state.advanced_to = advanced_to_;
  state.next_ts_sample = next_ts_sample_;
  return state;
}

void ResourceManager::StartResumed(const ResumeState& state) {
  PDPA_CHECK(!tick_active_);
  PDPA_CHECK(order_.empty()) << "StartResumed on a non-quiescent resource manager";
  tick_origin_ = state.origin;
  advanced_to_ = state.advanced_to;
  next_ts_sample_ = state.next_ts_sample;
  tick_active_ = true;
  // Recreate the cold run's pending tick. Tick before quantum, as in
  // Start(), so same-instant firings keep the tick-then-quantum order.
  if (!elide_) {
    // Fine grid: the cold run's last prefix tick fired at advanced_to.
    ScheduleTickAt(advanced_to_ + params_.tick);
  } else if (quantum_passive_) {
    // The sentinel prefix ran the exact elision schedule of a cold run of
    // this policy, so recomputing the horizon from the resume state
    // reproduces the cold run's pending tick — or leaves it parked.
    // Computed directly instead of via ScheduleNextTick: the elision
    // counter bump for this parking decision happened in the prefix and is
    // already part of the restored registry state.
    const SimTime horizon = ElisionHorizon(advanced_to_);
    if (horizon < kHorizonNever) {
      ScheduleTickAt(std::max(horizon, advanced_to_ + params_.tick));
    }
  } else {
    // A non-passive policy resumed from the quantum-passive sentinel
    // prefix: the sentinel parked earlier than a cold run of this policy
    // would have (its advanced_to may lie several quanta back), so jump
    // straight to the cold run's pending tick — the first quantum after the
    // divergence point. Elision counters of non-passive resumes are not
    // part of the byte contract.
    ScheduleTickAt(GridCeil(NextQuantumAfter(sim_->now())));
  }
  if (!quantum_passive_) {
    quantum_task_ = sim_->SchedulePeriodic(NextQuantumAfter(sim_->now()), params_.quantum,
                                           [this](SimTime now) { OnQuantum(now); });
  }
}

void ResourceManager::Stop() {
  if (tick_active_) {
    // An elided run may have a span pending behind the parked tick. A fine
    // run at this instant has fired every grid tick at or before now (the
    // driver stops between events), so advance to exactly that point. The
    // span holds no completion boundary (a completion's grid tick at or
    // before now would already have fired), so no job can finish here; under
    // boundary batching it may cross report boundaries, whose queued reports
    // are dropped with the run — the fast-path gate guarantees no sink or
    // policy could have observed their drain.
    if (elide_) {
      AdvanceAllTo(GridFloorAtOrBefore(sim_->now()));
    }
    if (tick_pending_) {
      sim_->events().Cancel(tick_event_);
      tick_pending_ = false;
    }
    tick_active_ = false;
  }
  if (quantum_task_ >= 0) {
    // Cancel (not just deactivate) so no dead chain event lingers: the
    // cluster engine parks stopped node simulations and requires their
    // queues empty before AdvanceTo-warping the clock to the next arrival.
    sim_->CancelPeriodic(quantum_task_);
    quantum_task_ = -1;
  }
  // Flush the tail windows of jobs still running (incomplete runs), so the
  // time-series integral matches alloc_integral_us() even on cutoffs.
  if (timeseries_ != nullptr) {
    const SimTime now = sim_->now();
    for (int slot : order_) {
      FlushAppSample(slot, now);
    }
  }
}

const PolicyContext& ResourceManager::FillContext(SimTime now) {
  scratch_ctx_.total_cpus = machine_.num_cpus();
  scratch_ctx_.free_cpus = machine_.FreeCpus();
  scratch_ctx_.now = now;
  scratch_ctx_.jobs.clear();
  // Straight gather from the slot-parallel hot-state arrays; no Application
  // dereference on this path.
  for (int slot : order_) {
    const std::size_t s = static_cast<std::size_t>(slot);
    if (hot_.job_id[s] == kIdleJob) {
      continue;  // Freed mid-CheckCompletions; compacted after the loop.
    }
    PolicyJobInfo info;
    info.id = hot_.job_id[s];
    info.request = hot_.request[s];
    info.alloc = hot_.alloc[s];
    info.rigid = hot_.rigid[s] != 0;
    scratch_ctx_.jobs.push_back(info);
  }
  return scratch_ctx_;
}

int ResourceManager::AllocateSlot() {
  if (!free_slots_.empty()) {
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<int>(slots_.size()) - 1;
}

bool ResourceManager::CanStartJob() const {
  ProfScope prof_scope(profiler_, SpanId::kPolicyDecide);
#ifdef PDPA_AUDIT
  // Admission runs between completion passes, never inside one, so order_
  // holds no freed slot and its size is the live job count.
  const auto live = std::count_if(order_.begin(), order_.end(), [this](int slot) {
    return hot_.job_id[static_cast<std::size_t>(slot)] != kIdleJob;
  });
  PDPA_CHECK_EQ(static_cast<std::size_t>(live), order_.size()) << "admission probe inside a completion pass";
#endif
  return policy_->ShouldAdmit(running_jobs(), machine_.FreeCpus());
}

void ResourceManager::StartJob(JobId job, const AppProfile& profile, int request, SimTime now,
                               bool rigid) {
  PDPA_CHECK_GE(job, 0);
  PDPA_CHECK(SlotOf(job) < 0) << "job " << job << " already running";
  const int effective_request = request > 0 ? request : profile.default_request;
  PDPA_CHECK_GT(effective_request, 0);

  // A fine run has fired every grid tick before this arrival; bring the
  // running jobs to the same point before the machine changes under them.
  CatchUp(now);

  // The slot index must exist before the Application is built or reset: the
  // app adopts the slot's dynamics columns in the shared hot-state arena.
  const int slot = AllocateSlot();
  hot_.EnsureSlot(slot);
  if (analyzer_counters_.reports == nullptr) {
    // Bound at the first start, not in the constructor: a run that never
    // starts a job lists no analyzer counters in its recorded dump.
    analyzer_counters_ = AnalyzerCounters::Bind(sim_->registry());
  }
  const AppProfile* interned = Intern(profile);
  RunningJob& running = slots_[static_cast<std::size_t>(slot)];
  if (running.binding == nullptr) {
    running.binding = std::make_unique<NthLibBinding>(
        std::make_unique<Application>(job, interned, params_.app_costs, &hot_, slot),
        params_.analyzer, rng_.Fork(), analyzer_counters_);
    running.binding->set_report_sink(&pending_reports_);
  } else {
    running.binding->Reset(job, interned, rng_.Fork());
  }
  Application& app = running.binding->app();
  app.set_request(effective_request);
  app.set_rigid(rigid);
  {
    running.id = job;
    const std::size_t s = static_cast<std::size_t>(slot);
    hot_.job_id[s] = job;
    hot_.request[s] = effective_request;
    hot_.rigid[s] = rigid ? 1 : 0;
    hot_.alloc_integral_us[s] = 0.0;
    running.last_speedup = 0.0;
    running.last_efficiency = 0.0;
    running.sampled_integral_us = 0.0;
    running.last_sample = now;
    running.material_stop = 0;
    running.material_epoch = ~0ull;
    running.max_speed = app.MaxSpeed();
    running.settled.valid = false;
  }
  if (static_cast<std::size_t>(job) >= slot_of_job_.size()) {
    slot_of_job_.resize(static_cast<std::size_t>(job) + 1, -1);
  }
  slot_of_job_[static_cast<std::size_t>(job)] = slot;
  order_.push_back(slot);
  share_order_.clear();
  jobs_started_->Increment();

  if (policy_->is_time_sharing()) {
    // Time sharing: the runtime spawns `request` threads and the OS
    // schedules them; no partition, no SelfAnalyzer coordination.
    NthLibBinding& b = *slots_[static_cast<std::size_t>(slot)].binding;
    b.app().SetAllocation(effective_request, now);
    b.app().Start(now);
    {
      ProfScope prof_scope(profiler_, SpanId::kPolicyDecide);
      (void)policy_->OnJobStart(FillContext(now), job);
    }
    PDPA_LOG(Info) << "job " << job << " started (time-sharing, " << effective_request
                   << " threads)";
    return;
  }

  const AllocationPlan plan = [&] {
    ProfScope prof_scope(profiler_, SpanId::kPolicyDecide);
    return policy_->OnJobStart(FillContext(now), job);
  }();
  ApplyPlan(plan, now, "start");
  NthLibBinding& b = *slots_[static_cast<std::size_t>(slot)].binding;
  PDPA_CHECK_GT(b.app().allocated(), 0)
      << policy_->name() << " started job " << job << " without processors";
  PDPA_LOG(Info) << "job " << job << " started with " << b.app().allocated() << "/"
                 << effective_request << " cpus";
  if (rigid) {
    // Rigid jobs are not iterative/malleable from the SelfAnalyzer's point
    // of view (Sec. 3.1: "requires applications to be iterative and
    // malleable"); they run without the baseline protocol.
    b.StartJobWithoutAnalyzer(now);
  } else {
    b.StartJob(now);
  }
  // The newcomer must be stepped on the fine grid until a materialized tick
  // recomputes the horizon; pull a parked tick back to the next grid point.
  ScheduleTickAt(advanced_to_ + params_.tick);
  PDPA_RM_AUDIT("start");
}

int ResourceManager::AllocationOf(JobId job) const {
  const int slot = SlotOf(job);
  return slot < 0 ? 0 : hot_.alloc[static_cast<std::size_t>(slot)];
}

const AppProfile* ResourceManager::Intern(const AppProfile& profile) {
  for (const std::unique_ptr<const AppProfile>& interned : profiles_) {
    if (interned->speedup == profile.speedup && *interned == profile) {
      return interned.get();
    }
  }
  profiles_.push_back(std::make_unique<const AppProfile>(profile));
  return profiles_.back().get();
}

std::map<JobId, double> ResourceManager::alloc_integral_us() const {
  std::map<JobId, double> merged;
  for (const auto& [job, integral] : finished_integral_us_) {
    merged[job] = integral;
  }
  for (int slot : order_) {
    const std::size_t s = static_cast<std::size_t>(slot);
    merged[hot_.job_id[s]] = hot_.alloc_integral_us[s];
  }
  return merged;
}

#ifdef PDPA_AUDIT
void ResourceManager::AuditInvariants(const char* where) const {
  machine_.AuditInvariants();
  // Every owned CPU belongs to a job with a live slot. Machine::owner_ is
  // single-valued per CPU, so double-ownership cannot be represented; the
  // reachable failure mode is a CPU still booked to a released job.
  for (int cpu = 0; cpu < machine_.num_cpus(); ++cpu) {
    const JobId owner = machine_.OwnerOf(cpu);
    if (owner == kIdleJob) {
      continue;
    }
    PDPA_CHECK(SlotOf(owner) >= 0)
        << where << ": cpu " << cpu << " owned by job " << owner << " with no live slot";
  }
  if (policy_->is_time_sharing()) {
    // Time sharing decouples thread counts from CPU ownership (the OS
    // multiplexes); only the ownership/slot check above applies.
    return;
  }
  // Per-job bookkeeping matches the machine partition, and the partition
  // fits the machine.
  long long total_alloc = 0;
  for (int slot : order_) {
    const RunningJob& running = slots_[static_cast<std::size_t>(slot)];
    if (running.id == kIdleJob) {
      continue;  // Freed mid-CheckCompletions; compacted after the loop.
    }
    PDPA_CHECK(running.binding != nullptr) << where << ": job " << running.id << " has no binding";
    const int alloc = running.binding->app().allocated();
    PDPA_CHECK_EQ(machine_.CountOf(running.id), alloc)
        << where << ": job " << running.id << " machine/application allocation mismatch";
    total_alloc += alloc;
  }
  PDPA_CHECK_LE(total_alloc, static_cast<long long>(machine_.num_cpus()))
      << where << ": allocations exceed the machine";
}
#endif

void ResourceManager::ApplyPlan(const AllocationPlan& plan, SimTime now, const char* trigger) {
  if (plan.empty()) {
    return;
  }
  // Clamp the named jobs to [1, request]; jobs the plan omits keep their
  // CPUs untouched (ApplyPartial), so no full-machine map is materialized.
  // A plan may include the not-yet-started newcomer whose allocation is 0.
  plan_scratch_.clear();
  plan_text_.clear();
  for (const auto& [job, count] : plan) {
    const int slot = SlotOf(job);
    if (slot < 0) {
      continue;  // Finished in the meantime.
    }
    const int clamped = std::clamp(count, 1, hot_.request[static_cast<std::size_t>(slot)]);
    plan_scratch_.emplace_back(job, clamped);
    if (events_ != nullptr) {
      if (!plan_text_.empty()) {
        plan_text_.push_back(' ');
      }
      AppendInt(&plan_text_, job);
      plan_text_.push_back(':');
      AppendInt(&plan_text_, clamped);
    }
  }
  plans_applied_->Increment();
  if (events_ != nullptr && !plan_text_.empty()) {
    events_->AllocDecision(now, trigger, plan_text_);
  }
  if (plan_scratch_.empty()) {
    return;
  }
  machine_.ApplyPartial(plan_scratch_, &handoffs_);
  const std::vector<CpuHandoff>& handoffs = handoffs_;
  if (trace_ != nullptr) {
    trace_->OnHandoffs(now, handoffs);
  }
  if (!handoffs.empty()) {
    int migrations = 0;
    for (const CpuHandoff& handoff : handoffs) {
      if (handoff.from != kIdleJob && handoff.to != kIdleJob) {
        ++migrations;
      }
    }
    cpu_handoffs_->Increment(static_cast<long long>(handoffs.size()));
    cpu_migrations_->Increment(migrations);
    if (events_ != nullptr) {
      events_->CpuHandoffs(now, static_cast<int>(handoffs.size()), migrations);
    }
  }
  for (const auto& [job, count] : plan_scratch_) {
    NthLibBinding& binding = *slots_[static_cast<std::size_t>(slot_of_job_[job])].binding;
    if (binding.app().allocated() != count) {
      // Initial assignment (from zero) is not a reallocation.
      if (binding.app().allocated() > 0) {
        ++total_reallocations_;
        reallocations_->Increment();
      }
      binding.SetProcessors(count, now);
    }
  }
  PDPA_RM_AUDIT(trigger);
}

void ResourceManager::DrainReports(SimTime now) {
  // Reports generated while advancing applications are processed after the
  // tick completes, mirroring the asynchronous shared-memory communication
  // between NthLib and the RM in the real system. The drain buffer is
  // reused: after the swap, pending_reports_ holds the previous (cleared)
  // batch's capacity.
  while (!pending_reports_.empty()) {
    report_batch_.clear();
    report_batch_.swap(pending_reports_);
    for (const PerfReport& report : report_batch_) {
      const int slot = SlotOf(report.job);
      if (slot < 0) {
        continue;
      }
      RunningJob& running = slots_[static_cast<std::size_t>(slot)];
      running.last_speedup = report.speedup;
      running.last_efficiency = report.efficiency;
      perf_reports_->Increment();
      report_efficiency_->Observe(report.efficiency);
      if (events_ != nullptr) {
        events_->PerfSample(now, report.job, report.procs, report.speedup, report.efficiency);
      }
      if (fast_path_) {
        // Report-passive policy: OnReport is a guaranteed no-op, so skip the
        // O(jobs) context fill and the empty-plan application outright. Gated
        // on the fast path (not bare report_passive) so committed profiles'
        // policy.decide span hits stay as pinned.
        continue;
      }
      const AllocationPlan plan = [&] {
        ProfScope prof_scope(profiler_, SpanId::kPolicyDecide);
        return policy_->OnReport(FillContext(now), report);
      }();
      ApplyPlan(plan, now, "report");
    }
  }
}

void ResourceManager::FlushAppSample(int slot, SimTime now) {
  if (timeseries_ == nullptr) {
    return;
  }
  RunningJob& running = slots_[static_cast<std::size_t>(slot)];
  const double integral = hot_.alloc_integral_us[static_cast<std::size_t>(slot)];
  const double delta = integral - running.sampled_integral_us;
  // Windows must have positive width for the alloc column to integrate back
  // to the delta; clamp the degenerate zero-width case (job finished at the
  // exact instant of the previous sample) to one microsecond.
  const SimTime t_end = now > running.last_sample ? now : running.last_sample + 1;
  if (delta <= 0.0 && now <= running.last_sample) {
    return;  // Nothing accrued and no time elapsed.
  }
  TimeSeriesSampler::AppPoint point;
  point.t_start = running.last_sample;
  point.t_end = t_end;
  point.job = running.id;
  point.alloc = delta / static_cast<double>(t_end - running.last_sample);
  point.speedup = running.last_speedup;
  point.efficiency = running.last_efficiency;
  point.state = policy_->AppStateName(running.id);
  timeseries_->AddApp(std::move(point));
  running.sampled_integral_us = integral;
  running.last_sample = t_end;
}

void ResourceManager::SampleTimeseries(SimTime now) {
  const int free = machine_.FreeCpus();
  free_cpus_gauge_->Set(free);
  if (timeseries_ == nullptr) {
    return;
  }
  for (int slot : order_) {
    FlushAppSample(slot, now);
  }
  TimeSeriesSampler::MachinePoint point;
  point.t = now;
  point.free_cpus = free;
  point.running = static_cast<int>(order_.size());
  point.queued = queue_depth_ ? queue_depth_() : 0;
  point.utilization = machine_.num_cpus() > 0
                          ? static_cast<double>(machine_.num_cpus() - free) /
                                static_cast<double>(machine_.num_cpus())
                          : 0.0;
  timeseries_->AddMachine(point);
}

void ResourceManager::CheckCompletions(SimTime now) {
  bool finished_any = false;
  // Jobs start in arrival order and JobIds are assigned in arrival order, so
  // iterating order_ visits finishers exactly as the JobId-ordered map did.
  // order_ may gain stale (idle) entries during the loop; they are skipped
  // and compacted once at the end — no per-finisher O(n) erase.
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const int slot = order_[i];
    const std::size_t s = static_cast<std::size_t>(slot);
    RunningJob& running = slots_[s];
    // Linear finished-flag scan over the hot-state array; the binding is
    // only touched for actual finishers.
    if (hot_.job_id[s] == kIdleJob || !hot_.finished[s]) {
      continue;
    }
    const JobId job = running.id;
    const SimTime finish_time = running.binding->app().finish_time();
    // Final partial window, so per-job time-series integrals are exact.
    FlushAppSample(slot, finish_time);
    machine_.ReleaseJob(job, &handoffs_);
    if (trace_ != nullptr) {
      trace_->OnHandoffs(now, handoffs_);
    }
    cpu_handoffs_->Increment(static_cast<long long>(handoffs_.size()));
    jobs_finished_->Increment();
    PDPA_LOG(Info) << "job " << job << " finished";
    finished_integral_us_.emplace_back(job, hot_.alloc_integral_us[s]);
    slot_of_job_[static_cast<std::size_t>(job)] = -1;
    // The binding stays resident for the slot's next job.
    running.id = kIdleJob;
    hot_.ResetSlot(slot);
    free_slots_.push_back(slot);
    PDPA_RM_AUDIT("release");
    const AllocationPlan plan = [&] {
      ProfScope prof_scope(profiler_, SpanId::kPolicyDecide);
      return policy_->OnJobFinish(FillContext(now), job);
    }();
    ApplyPlan(plan, now, "finish");
    if (on_finish_) {
      on_finish_(job, finish_time);
    }
    finished_any = true;
  }
  if (finished_any) {
    order_.erase(std::remove_if(order_.begin(), order_.end(),
                                [this](int slot) {
                                  return slots_[static_cast<std::size_t>(slot)].id == kIdleJob;
                                }),
                 order_.end());
    share_order_.clear();
    if (on_state_change_) {
      on_state_change_(now);
    }
  }
}

void ResourceManager::AdvanceSpan(SimTime from, SimDuration dt) {
  for (int slot : order_) {
    const std::size_t s = static_cast<std::size_t>(slot);
    slots_[s].binding->Tick(from, dt);
    // Exact under elision: allocation x integer-microsecond products are
    // integer-valued doubles, so one span-sized addend equals the per-tick
    // sum a fine run accumulates.
    hot_.alloc_integral_us[s] += static_cast<double>(hot_.alloc[s]) * static_cast<double>(dt);
  }
}

void ResourceManager::AdvanceAllTo(SimTime target) {
  if (target > advanced_to_) {
    AdvanceSpan(advanced_to_, target - advanced_to_);
    advanced_to_ = target;
  }
}

void ResourceManager::CatchUp(SimTime now) {
  if (!tick_active_ || !elide_) {
    return;
  }
  // Everything in (advanced_to_, last grid < now] is span a fine run has
  // already ticked through. No *material* boundary lies inside it (the tick
  // was parked past it only if nothing before the parked instant could
  // change scheduling state); under boundary batching, passive report
  // boundaries may be crossed here and their reports drain at the next tick.
  AdvanceAllTo(GridFloorBefore(now));
}

SimTime ResourceManager::GridCeil(SimTime t) const {
  if (t <= tick_origin_) {
    return tick_origin_;
  }
  const SimTime k = (t - tick_origin_ + params_.tick - 1) / params_.tick;
  return tick_origin_ + k * params_.tick;
}

SimTime ResourceManager::GridFloorBefore(SimTime t) const {
  if (t <= tick_origin_) {
    return advanced_to_;
  }
  const SimTime k = (t - tick_origin_ - 1) / params_.tick;
  return std::max(advanced_to_, tick_origin_ + k * params_.tick);
}

SimTime ResourceManager::GridFloorAtOrBefore(SimTime t) const {
  if (t < tick_origin_) {
    return advanced_to_;
  }
  const SimTime k = (t - tick_origin_) / params_.tick;
  return std::max(advanced_to_, tick_origin_ + k * params_.tick);
}

SimTime ResourceManager::NextQuantumAfter(SimTime t) const {
  const SimTime k = (t - tick_origin_) / params_.quantum + 1;
  return tick_origin_ + k * params_.quantum;
}

void ResourceManager::ScheduleTickAt(SimTime when) {
  if (!tick_active_) {
    return;
  }
  if (tick_pending_ && tick_at_ == when) {
    return;
  }
  if (tick_pending_) {
    sim_->events().Cancel(tick_event_);
  }
  tick_at_ = when;
  tick_pending_ = true;
  tick_event_ = sim_->events().Schedule(when, [this] { OnTickEvent(); });
}

void ResourceManager::OnTickEvent() {
  tick_pending_ = false;
  OnTick(tick_at_);
}

SimTime ResourceManager::ElisionHorizon(SimTime now) {
  // One cache-linear pass over the slot-parallel hot-state arrays: every
  // Application republishes its ready_at/next_boundary after each state
  // change, so the values are current as of this instant (the per-tick
  // Advance just ran) and no Application is dereferenced here.
  SimTime min_boundary = kHorizonNever;
  const SimTime* ready_at = hot_.ready_at.data();
  const SimTime* next_boundary = hot_.next_boundary.data();
  if (fast_path_) {
    // Boundary batching: park at the earliest *material* stop instead of the
    // earliest boundary. MaterialStop returns grid-aligned instants, so no
    // further GridCeil; the quantum (passive) and sample (no sink) caps are
    // vacuous under the fast-path gate.
    SimTime horizon = kHorizonNever;
    for (int slot : order_) {
      if (ready_at[slot] > now) {
        return 0;  // Unsteady (frozen or mid-warmup): stay on the fine grid.
      }
      horizon = std::min(horizon, MaterialStop(slot, now));
    }
    return horizon;
  }
  for (int slot : order_) {
    if (ready_at[slot] > now) {
      return 0;  // Unsteady (frozen or mid-warmup): stay on the fine grid.
    }
    min_boundary = std::min(min_boundary, next_boundary[slot]);
  }
  // Earliest forced materialization: the first job boundary (so the span's
  // last tick crosses it exactly as a fine run would), capped by the next
  // quantum — unless the policy is quantum-passive, in which case the
  // periodic is not even scheduled — and the next time-series sample
  // instant.
  SimTime horizon = quantum_passive_ ? kHorizonNever : GridCeil(NextQuantumAfter(now));
  if (min_boundary < kHorizonNever) {
    horizon = std::min(horizon, GridCeil(min_boundary));
  }
  if (timeseries_ != nullptr) {
    horizon = std::min(horizon, GridCeil(next_ts_sample_));
  }
  return horizon;
}

SimTime ResourceManager::MaterialStop(int slot, SimTime now) {
  const std::size_t s = static_cast<std::size_t>(slot);
  RunningJob& rj = slots_[s];
  const std::uint64_t epoch = hot_.change_epoch[s];
  if (rj.material_epoch == epoch && rj.material_stop > now) {
    return rj.material_stop;
  }
  const SimTime next_b = hot_.next_boundary[s];
  SimTime stop = kHorizonNever;
  if (next_b < kHorizonNever) {
    const Application& app = rj.binding->app();
    const SelfAnalyzer& analyzer = rj.binding->analyzer();
    const int remaining = app.remaining_iterations();
    if (!analyzer.baseline_done()) {
      // The analyzer reacts at each boundary while its baseline window can
      // still fill (it force-releases the processor override when done), so
      // those boundaries are material — unless the window can never fill at
      // the current steady allocation (a mismatched rigid job): its records
      // are discarded without side effects and only completion matters.
      const bool can_engage =
          app.EffectiveProcs() == std::min(analyzer.baseline_procs(), app.allocated());
      stop = can_engage ? GridCeil(next_b) : SettledTicks(slot, now).fin;
    } else {
      // Settled: reports accumulate at boundaries but the passive policy
      // ignores them, so the only material instants left are the penultimate
      // drain tick — the largest grid instant that any pre-final boundary
      // rounds up to, where the reference schedule has drained every report
      // it will ever drain for this job — and the completion tick, where
      // reports from boundaries sharing that grid instant are dropped
      // (CheckCompletions frees the slot before DrainReports runs).
      // The segment's drain boundary, if still ahead, gives the penultimate
      // drain tick (fin once that tick has passed). A pathological pile-up
      // of more than kDrainWalkCap remaining boundaries on the final tick
      // falls back to per-boundary stops (slower, identically scheduled).
      // Otherwise no remaining boundary drains before fin.
      const SettledSegment& seg = SettledTicks(slot, now);
      const int completed = app.total_iterations() - remaining;
      if (seg.drain_index > completed) {
        stop = seg.drain_tick > now ? seg.drain_tick : seg.fin;
      } else if (seg.drain_index == 0 && remaining - 1 > kDrainWalkCap) {
        stop = GridCeil(next_b);
      } else {
        stop = seg.fin;
      }
    }
  }
  rj.material_stop = stop;
  rj.material_epoch = epoch;
  return stop;
}

const ResourceManager::SettledSegment& ResourceManager::SettledTicks(int slot,
                                                                      SimTime now) const {
  const RunningJob& rj = slots_[static_cast<std::size_t>(slot)];
  const Application& app = rj.binding->app();
  const SegmentAnchor anchor = app.SteadyAnchor(now);
  SettledSegment& seg = rj.settled;
  if (seg.valid && seg.anchor == anchor) {
    return seg;
  }
  seg.valid = true;
  seg.anchor = anchor;
  seg.drain_index = 0;
  seg.drain_tick = 0;
  if (anchor.speed <= 0.0) {
    seg.fin = GridCeil(kHorizonNever);
    return seg;
  }
  const int total = app.total_iterations();
  seg.fin = GridCeil(app.BoundaryAt(anchor, total));
  // Descending walk for the largest pre-final boundary with an earlier grid
  // tick: the penultimate drain tick. Bounded, so a pile-up of boundaries on
  // the final tick costs at most kDrainWalkCap steps.
  for (int index = total - 1; index >= std::max(1, total - kDrainWalkCap); --index) {
    const SimTime tick = GridCeil(app.BoundaryAt(anchor, index));
    if (tick < seg.fin) {
      seg.drain_index = index;
      seg.drain_tick = tick;
      break;
    }
  }
  return seg;
}

SimTime ResourceManager::NextVisibleBound(bool* exact) const {
  const EventQueue& events = sim_->events();
  const SimTime next_event = events.empty() ? kHorizonNever : events.NextTime();
  if (exact != nullptr) {
    *exact = false;
  }
  if (!fast_path_ || !tick_active_) {
    return next_event;
  }
  // A fully passive policy changes allocations only at starts and finishes,
  // so until the first completion the admission inputs stay fixed and the
  // only visible instant left is that completion's tick. A settled job
  // (steady, baseline done) keeps its speed until then: its completion tick
  // is the closed-form one. An unsettled job may still speed up (baseline
  // release, warm-up ramp, thaw), but never beyond its maximum speed, so it
  // cannot finish before all its remaining work runs at that speed.
  SimTime settled = kHorizonNever;
  SimTime unsettled = kHorizonNever;
  for (int slot : order_) {
    const std::size_t s = static_cast<std::size_t>(slot);
    const NthLibBinding& binding = *slots_[s].binding;
    if (hot_.ready_at[s] <= advanced_to_ && binding.analyzer().baseline_done()) {
      settled = std::min(settled, SettledTicks(slot, advanced_to_).fin);
      continue;
    }
    if (slots_[s].max_speed <= 0.0) {
      continue;  // cannot progress, so cannot finish
    }
    // Rounded down with a margin for the microsecond rounding of boundary
    // instants and the floating-point drift of segment-anchored progress.
    const Application& app = binding.app();
    const double remaining_us =
        (app.total_work_s() - app.progress_s()) / slots_[s].max_speed * kSecond;
    const SimTime earliest =
        advanced_to_ + std::max<SimTime>(0, static_cast<SimTime>(remaining_us * (1 - 1e-9)) - 2);
    // Completions surface only at grid ticks.
    unsettled = std::min(unsettled, GridCeil(earliest));
  }
  if (exact != nullptr) {
    *exact = settled < kHorizonNever && settled <= unsettled && settled > next_event;
  }
  return std::max(std::min(settled, unsettled), next_event);
}

void ResourceManager::ScheduleNextTick(SimTime now) {
  SimTime next = now + params_.tick;
  if (elide_) {
    const SimTime horizon = ElisionHorizon(now);
    if (horizon >= kHorizonNever) {
      // Unbounded horizon (idle machine, quantum-passive policy, no
      // sampling): nothing can materialize state until an external event —
      // a job start or a quantum plan — pulls the tick back via
      // ScheduleTickAt. Park it unscheduled rather than enqueueing a
      // far-future sentinel the end-of-run drain would dispatch.
      if (tick_pending_) {
        sim_->events().Cancel(tick_event_);
        tick_pending_ = false;
      }
      return;
    }
    if (horizon > next) {
      ticks_elided_->Increment((horizon - next) / params_.tick);
      next = horizon;
    }
  }
  ScheduleTickAt(next);
}

void ResourceManager::OnTick(SimTime now) {
  ProfScope prof_scope(profiler_, SpanId::kRmTick);
  ticks_fired_->Increment();
  const SimDuration dt = now - advanced_to_;

  if (policy_->is_time_sharing()) {
    share_handoffs_.clear();
    const PolicyContext* ctx = nullptr;
    {
      ProfScope decide_scope(profiler_, SpanId::kPolicyDecide);
      ctx = &FillContext(now);
      policy_->TimeShareTick(machine_, *ctx, dt, &share_handoffs_, &shares_);
    }
    if (trace_ != nullptr) {
      trace_->OnHandoffs(advanced_to_, share_handoffs_);
    }
    // Advance in ascending JobId order: AdvanceTimeShared queues the job's
    // performance reports, and their order reaches the event log. Starts and
    // finishes clear the order, so it is rebuilt only when the job set changes.
    if (share_order_.size() != ctx->jobs.size()) {
      share_order_.resize(ctx->jobs.size());
      std::iota(share_order_.begin(), share_order_.end(), 0);
      std::sort(share_order_.begin(), share_order_.end(), [ctx](int a, int b) {
        return ctx->jobs[static_cast<std::size_t>(a)].id <
               ctx->jobs[static_cast<std::size_t>(b)].id;
      });
    }
    for (const int pos : share_order_) {
      const std::size_t k = static_cast<std::size_t>(pos);
      const int slot = SlotOf(ctx->jobs[k].id);
      if (slot >= 0) {
        const std::size_t s = static_cast<std::size_t>(slot);
        const TimeShare& share = shares_[k];
        slots_[s].binding->app().AdvanceTimeShared(advanced_to_, dt, share.effective_procs,
                                                   share.overhead);
        hot_.alloc_integral_us[s] += share.effective_procs * static_cast<double>(dt);
      }
    }
    advanced_to_ = now;
  } else {
    AdvanceSpan(advanced_to_, dt);
    advanced_to_ = now;
  }

  CheckCompletions(now);
  DrainReports(now);
  if (trace_ != nullptr) {
    trace_->Tick(now);
  }
  // Sample on the scheduler quantum, after completions and reports of this
  // tick have settled, so windows end on post-decision state.
  if (now >= next_ts_sample_) {
    SampleTimeseries(now);
    // The first quantum instant past now, in one step: an elided tick may
    // jump many quanta.
    next_ts_sample_ += ((now - next_ts_sample_) / params_.quantum + 1) * params_.quantum;
  }
  if (on_state_change_) {
    on_state_change_(now);
  }
  ScheduleNextTick(now);
}

void ResourceManager::OnQuantum(SimTime now) {
  ProfScope prof_scope(profiler_, SpanId::kRmQuantum);
  if (policy_->is_time_sharing()) {
    return;
  }
  const AllocationPlan plan = [&] {
    ProfScope decide_scope(profiler_, SpanId::kPolicyDecide);
    return policy_->OnQuantum(FillContext(now));
  }();
  if (plan.empty()) {
    return;
  }
  // Mid-span mutation: materialize the elided prefix first, then pull the
  // parked tick back to the fine grid (allocations just changed, so the old
  // horizon is void and the jobs are unsteady anyway).
  CatchUp(now);
  ApplyPlan(plan, now, "quantum");
  ScheduleTickAt(advanced_to_ + params_.tick);
}

}  // namespace pdpa
