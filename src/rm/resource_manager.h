// NANOS Resource Manager: the user-level processor scheduler.
//
// The RM owns the machine and the per-job runtime bindings, drives the
// scheduling policy at job arrival / completion / performance-report events
// and at quantum boundaries, enforces its decisions on the machine, and
// coordinates with the queuing system (admission callbacks).
//
// Inner-loop design (the hot path of every sweep cell):
//   * Running jobs live in a dense slot-indexed vector with a free list and
//     a stable JobId -> slot map; iteration order is a compact vector of
//     slot indices in arrival order. No per-tick map lookups.
//   * Per-job hot state (allocations, elision readiness, next-boundary
//     instants, segment anchors) lives in a slot-indexed HotStateArena
//     (src/sim/hot_state.h) shared with the Applications, so the horizon
//     min and the policy-context fill are linear scans over parallel
//     arrays.
//   * Event-horizon tick elision: the progress "tick" is a one-shot event
//     the RM reschedules itself. Whenever every running application is in
//     steady state (warmup converged, no reconfiguration freeze), dynamics
//     are exactly linear until the next iteration boundary, so the RM parks
//     the tick at the event horizon — the earliest of the next boundary,
//     the next scheduler quantum (unless the policy is quantum-passive),
//     and the next time-series sample — and advances the whole span in one
//     closed-form Advance. When nothing bounds the horizon (idle machine,
//     passive policy, no sampling) the tick is parked unscheduled until a
//     job start pulls it back. Coarsened runs are byte-identical to
//     fine-tick runs (segment-anchored integration in Application);
//     `Params::exact_ticks` is the escape hatch that forces a tick at every
//     grid point.
#ifndef SRC_RM_RESOURCE_MANAGER_H_
#define SRC_RM_RESOURCE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/machine/machine.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/rm/policy.h"
#include "src/runtime/nth_lib.h"
#include "src/sim/hot_state.h"
#include "src/sim/simulation.h"
#include "src/trace/trace_recorder.h"

namespace pdpa {

class ResourceManager {
 public:
  struct Params {
    int num_cpus = 60;
    // Progress/trace granularity.
    SimDuration tick = 20 * kMillisecond;
    // Scheduling quantum (policy OnQuantum cadence).
    SimDuration quantum = 100 * kMillisecond;
    SelfAnalyzerParams analyzer;
    AppCosts app_costs;
    // Escape hatch: fire the progress tick at every grid point even when
    // event-horizon analysis would allow eliding (A/B validation; the
    // golden-equivalence tests compare exact vs elided runs byte for byte).
    bool exact_ticks = false;
    // Boundary batching: under elision with a quantum- AND report-passive
    // policy and no event-log/time-series sinks, iteration boundaries carry
    // no scheduling consequence, so the tick can park past *many* boundaries
    // at once — at the penultimate drain tick and the completion tick of
    // each job — instead of materializing every boundary. Schedule-visible
    // outputs (outcomes, finish times, allocation integrals, report counts
    // and efficiency histograms) are byte-identical to the per-boundary
    // schedule; only rm.ticks / rm.ticks_elided and gauge sampling instants
    // differ. Off by default because the off state is the every-tick
    // reference the cluster and RM tests compare the fast path against
    // (ClusterBoundaryBatchTest); simbench's cluster workloads set it.
    bool boundary_batch = false;
  };

  // (job, finish_time) after the job's processors have been released.
  using JobFinishCallback = std::function<void(JobId, SimTime)>;
  // Invoked whenever scheduling state changed in a way that may allow the
  // queuing system to start more jobs.
  using StateChangeCallback = std::function<void(SimTime)>;

  // Reads its flight-recorder sinks (event log, time series, CPU trace,
  // profiler) from `sim` and attaches `policy` to the simulation's registry
  // and event log; the policy's and the RM's instruments register here.
  ResourceManager(Params params, std::unique_ptr<SchedulingPolicy> policy, Simulation* sim,
                  Rng rng);

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  void set_job_finish_callback(JobFinishCallback callback) { on_finish_ = std::move(callback); }
  void set_state_change_callback(StateChangeCallback callback) {
    on_state_change_ = std::move(callback);
  }

  // Lets machine samples include the queuing system's backlog.
  void set_queue_depth_provider(std::function<int()> provider) {
    queue_depth_ = std::move(provider);
  }

  // Registers the tick and quantum tasks; call once before running.
  void Start();

  // Scheduling-machinery state at a quiescent instant (no running jobs, no
  // pending reports): everything needed to resume the tick/quantum cadence
  // of a run whose prefix was simulated elsewhere. Used by shared-prefix
  // forking (see RunExperimentFrom in src/workload/experiment.h).
  struct ResumeState {
    SimTime origin = 0;       // grid phase (simulation time at Start())
    SimTime advanced_to = 0;  // last grid instant the prefix ticked at
    SimTime next_ts_sample = 0;
  };
  // Captures the resume state of this (running, idle-machine) RM.
  ResumeState ResumeStateNow() const;
  // Start() variant for forked runs: adopts the prefix's grid phase and
  // cadence instead of anchoring at sim->now(). Call with the simulation
  // clock already restored to the divergence instant, after the queuing
  // system has scheduled its arrivals (event-order parity: the resumed
  // tick/quantum events must carry later sequence numbers than the arrival
  // events, exactly as in the cold run they replace).
  void StartResumed(const ResumeState& state);

  // Stops the periodic tasks (end of experiment drain). Under elision this
  // first advances every job to the last grid instant at or before now, so
  // cutoff runs observe exactly the state a fine-tick run would have.
  void Stop();

  // Queuing-system side: may one more job start now?
  bool CanStartJob() const;

  // Starts `job` immediately. Requires CanStartJob() for space-sharing
  // policies. `request` overrides the profile's default when > 0. Rigid
  // jobs keep a fixed process count and may be folded (see Application).
  void StartJob(JobId job, const AppProfile& profile, int request, SimTime now,
                bool rigid = false);

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  SchedulingPolicy& policy() { return *policy_; }
  const SchedulingPolicy& policy() const { return *policy_; }

  int running_jobs() const { return static_cast<int>(order_.size()); }
  bool HasJob(JobId job) const { return SlotOf(job) >= 0; }
  int AllocationOf(JobId job) const;

  // Integral of per-job allocation over time, for average-allocation
  // metrics: cpu-microseconds per job (running jobs merged over the archive
  // of finished ones).
  std::map<JobId, double> alloc_integral_us() const;

  // Number of times any job's allocation was actually changed (the
  // "reallocations are not free" count the paper uses against
  // Equal_efficiency and Dynamic).
  long long total_reallocations() const { return total_reallocations_; }

  const Params& params() const { return params_; }

  // Lower bound on the next simulation instant at which this RM makes a
  // change an outside observer can see: a job finishing, or CanStartJob()
  // flipping. Valid until that instant or the next external StartJob/Stop,
  // whichever comes first. Both changes happen only inside events, so the
  // next pending event time is always a valid bound, and it is the answer
  // for a reactive policy, capture sinks or exact_ticks. Under the
  // boundary-batch fast path the policy is passive, so allocations and the
  // admission inputs stay fixed until the first completion, and the bound
  // is the earliest completion tick over the running jobs, in closed form:
  //   * a settled job (steady, baseline done): the exact tick MaterialStop
  //     parks at (`fin`);
  //   * an unsettled job (baseline, freeze or warm-up): a strict lower bound,
  //     its remaining work at its maximum speed (Application::MaxSpeed),
  //     rounded down with a small margin.
  // Never below the next event. `exact`, when given, is set when the bound
  // is a settled job's completion tick past the next event: the instant the
  // first completion happens, not just a bound on it. kHorizonNever when
  // nothing is pending.
  SimTime NextVisibleBound(bool* exact = nullptr) const;

 private:
  // The completion and drain ticks of a settled job's steady segment, which
  // stay valid while the segment's anchor does (see SettledTicks).
  struct SettledSegment {
    bool valid = false;
    SegmentAnchor anchor;
    // Completion tick: the grid tick of the final boundary.
    SimTime fin = 0;
    // Largest pre-final boundary index among the last kDrainWalkCap whose
    // grid tick lies before fin (0: none does), and that tick.
    int drain_index = 0;
    SimTime drain_tick = 0;
  };

  // Cold per-slot companion of the hot-state arena: the binding plus
  // sampling bookkeeping. Identity fields (request, rigid) live in
  // the arena's slot-parallel arrays.
  struct RunningJob {
    // Slot-resident: built by the slot's first job and reset in place by
    // every later StartJob, so placing a job allocates nothing.
    std::unique_ptr<NthLibBinding> binding;
    // kIdleJob marks a free slot (mirrored in hot_.job_id).
    JobId id = kIdleJob;
    // Latest SelfAnalyzer measurement, for the time-series sampler.
    double last_speedup = 0.0;
    double last_efficiency = 0.0;
    // Allocation-integral watermark of the last emitted time-series window.
    double sampled_integral_us = 0.0;
    SimTime last_sample = 0;
    // Boundary-batching cache: the material stop computed for this slot and
    // the hot-state change epoch it was computed at (see MaterialStop).
    SimTime material_stop = 0;
    std::uint64_t material_epoch = ~0ull;
    // Application::MaxSpeed, fixed at StartJob (request and rigidity do not
    // change while the job runs).
    double max_speed = 0.0;
    mutable SettledSegment settled;
  };

  // Fills and returns the reusable scratch context (no per-call allocation
  // once the jobs vector capacity has grown). Admission does not use it.
  const PolicyContext& FillContext(SimTime now);
  int SlotOf(JobId job) const {
    return job >= 0 && static_cast<std::size_t>(job) < slot_of_job_.size() ? slot_of_job_[job]
                                                                           : -1;
  }
  int AllocateSlot();

  void OnTickEvent();
  void OnTick(SimTime now);
  void OnQuantum(SimTime now);

  // Advances every running job over (advanced_to_, target] in one span.
  void AdvanceAllTo(SimTime target);
  // Closed-form advance of all jobs over [from, from + dt).
  void AdvanceSpan(SimTime from, SimDuration dt);
  // Before a mid-span mutation at `now`: advance to the last grid instant
  // strictly before now (the ticks a fine run would already have fired).
  // No-op when not eliding or already caught up.
  void CatchUp(SimTime now);

  // (Re)schedules the one-shot tick event at `when`; no-op if already there.
  void ScheduleTickAt(SimTime when);
  // End of OnTick: park the next tick at the event horizon — unscheduled
  // entirely when the horizon is unbounded — or one tick ahead when any job
  // is unsteady (or elision is off).
  void ScheduleNextTick(SimTime now);
  // Earliest instant the next tick must fire at, grid-aligned: min over the
  // per-job published boundary horizons (a linear scan of the hot-state
  // arrays), the next quantum (skipped for quantum-passive policies), and
  // the next time-series sample. 0 when some job is unsteady;
  // kHorizonNever when nothing bounds the horizon.
  SimTime ElisionHorizon(SimTime now);
  // Boundary-batching fast path: earliest grid instant > now at which this
  // slot's job has a *material* event — a boundary whose tick the reference
  // schedule observably depends on. For a settled job that is the penultimate
  // drain tick (largest grid instant strictly before the completion tick,
  // where every still-drainable report must be flushed) and the completion
  // tick itself; during the baseline phase it is every boundary (the analyzer
  // reacts at each one); for a job whose analyzer can never engage it is the
  // completion tick only. Grid-aligned; kHorizonNever when the job cannot
  // progress. Requires fast_path_ and ready_at[slot] <= now.
  SimTime MaterialStop(int slot, SimTime now);
  // The slot's steady job's settled segment as of `now` (the instant it was
  // last advanced to): recomputed only when the segment's anchor moved.
  const SettledSegment& SettledTicks(int slot, SimTime now) const;
  // The interned copy of `profile` that resident Applications borrow.
  const AppProfile* Intern(const AppProfile& profile);

  SimTime GridCeil(SimTime t) const;
  // Largest grid instant < t (clamped to advanced_to_).
  SimTime GridFloorBefore(SimTime t) const;
  // Largest grid instant <= t (clamped to advanced_to_).
  SimTime GridFloorAtOrBefore(SimTime t) const;
  SimTime NextQuantumAfter(SimTime t) const;

  // PDPA_AUDIT builds: verifies machine/job-table consistency after every
  // mutation (every owned CPU maps to a live slot; per-job bookkeeping
  // matches the machine partition; allocations fit the machine). Call sites
  // compile away in normal builds.
#ifdef PDPA_AUDIT
  void AuditInvariants(const char* where) const;
#endif

  void ApplyPlan(const AllocationPlan& plan, SimTime now, const char* trigger);
  void DrainReports(SimTime now);
  void CheckCompletions(SimTime now);
  // Emits the [last_sample, now) time-series window for one job.
  void FlushAppSample(int slot, SimTime now);
  // Emits app windows for every running job plus one machine point.
  void SampleTimeseries(SimTime now);

  Params params_;
  std::unique_ptr<SchedulingPolicy> policy_;
  Simulation* sim_;
  Rng rng_;
  Machine machine_;

  // Dense job table: stable slots + free list + JobId -> slot + arrival
  // order (slot indices, batch-compacted when jobs finish). Hot per-job
  // state is slot-parallel in hot_; the Applications own and publish the
  // dynamics columns of their slots.
  HotStateArena hot_;
  std::vector<RunningJob> slots_;
  std::vector<int> free_slots_;
  std::vector<int> slot_of_job_;
  std::vector<int> order_;

  // Every SelfAnalyzer appends its reports here directly.
  std::vector<PerfReport> pending_reports_;
  // Reused drain buffer (swapped with pending_reports_ per drain round).
  std::vector<PerfReport> report_batch_;
  // Integral archive of finished jobs in finish order (merged into
  // alloc_integral_us()).
  std::vector<std::pair<JobId, double>> finished_integral_us_;
  // Profiles the resident Applications borrow, one per distinct profile
  // started here. Each copy holds its speedup model, so no other model can
  // reuse that address while this RM lives: the model pointer identifies
  // the profile's curve for Intern's lookup.
  std::vector<std::unique_ptr<const AppProfile>> profiles_;
  long long total_reallocations_ = 0;

  PolicyContext scratch_ctx_;
  // Time-sharing tick buffers: the policy's CPU reassignments, its shares
  // (parallel to scratch_ctx_.jobs) and their JobId-ascending advance order.
  std::vector<CpuHandoff> share_handoffs_;
  std::vector<TimeShare> shares_;
  std::vector<int> share_order_;
  std::vector<std::pair<JobId, int>> plan_scratch_;
  // Machine handoffs of the latest plan or release, and the alloc_decision
  // plan text; reused buffers.
  std::vector<CpuHandoff> handoffs_;
  std::string plan_text_;

  JobFinishCallback on_finish_;
  StateChangeCallback on_state_change_;

  // Flight-recorder sinks, read from the simulation at construction (all
  // borrowed, each may be null). The profiler wraps the progress tick
  // (rm.tick), the quantum scan (rm.quantum) and every policy callback
  // (policy.decide).
  EventLog* events_ = nullptr;
  TimeSeriesSampler* timeseries_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  Profiler* profiler_ = nullptr;

  // Fast-path gates, fixed at construction with the sinks. Tick elision:
  // no exact-tick escape hatch, no time-sharing policy and no CPU trace.
  bool elide_ = false;
  // elide_ plus a policy whose OnQuantum is a guaranteed no-op: the quantum
  // periodic is not scheduled at all and does not cap the elision horizon.
  bool quantum_passive_ = false;
  // Boundary batching engaged: params_.boundary_batch plus a fully passive
  // policy (quantum and report) and no event-log / time-series / trace sinks,
  // whose exact per-boundary drain instants the outputs could observe.
  bool fast_path_ = false;

  // Tick-event state. The tick is a self-rescheduled one-shot (not a
  // periodic task) so it can be parked at the event horizon and pulled back
  // to the fine grid on mid-span mutations.
  bool tick_active_ = false;   // Start() .. Stop()
  bool tick_pending_ = false;  // a tick event is outstanding
  EventId tick_event_ = 0;
  SimTime tick_at_ = 0;      // fire time of the outstanding tick event
  SimTime tick_origin_ = 0;  // grid phase (simulation time at Start())
  SimTime advanced_to_ = 0;  // all jobs integrated up to here
  int quantum_task_ = -1;

  std::function<int()> queue_depth_;
  SimTime next_ts_sample_ = 0;

  // Per-run instruments, resolved once from the simulation's registry.
  Counter* jobs_started_;
  Counter* jobs_finished_;
  Counter* reallocations_;
  Counter* plans_applied_;
  Counter* cpu_handoffs_;
  Counter* cpu_migrations_;
  Counter* perf_reports_;
  Counter* ticks_fired_;
  Counter* ticks_elided_;
  Gauge* free_cpus_gauge_;
  Histogram* report_efficiency_;
  // Handed to every job's SelfAnalyzer; resolved at the first StartJob.
  AnalyzerCounters analyzer_counters_;
};

}  // namespace pdpa

#endif  // SRC_RM_RESOURCE_MANAGER_H_
