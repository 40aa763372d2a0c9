// PDPA: Performance-Driven Processor Allocation (the paper's contribution).
//
// This header contains the *pure* policy logic, independent of any execution
// engine: the per-application search automaton (Fig. 2 of the paper) and the
// coordinated multiprogramming-level rule. The same code drives the
// machine simulator (src/rm/pdpa_policy) and the real in-process resource
// manager (src/rt/process_rm).
//
// Search automaton states:
//   NO_REF — no performance knowledge yet (starting point)
//   INC    — performed well at the last evaluation; probing upward
//   DEC    — efficiency below target; shrinking
//   STABLE — largest allocation with acceptable efficiency found
#ifndef SRC_CORE_PDPA_H_
#define SRC_CORE_PDPA_H_

#include <string>

namespace pdpa {

enum class PdpaState : int {
  kNoRef = 0,
  kInc = 1,
  kDec = 2,
  kStable = 3,
};

const char* PdpaStateName(PdpaState state);

struct PdpaParams {
  // Efficiency below which an allocation is unacceptable (shrink).
  double target_eff = 0.7;
  // Efficiency considered very good (probe upward).
  double high_eff = 0.9;
  // Processors added/removed per transition.
  int step = 4;
  // Maximum number of times an application may leave STABLE, to avoid
  // ping-pong effects (Sec. 4.2.4). 0 disables re-evaluation entirely.
  int max_stable_exits = 4;
  // Ablation switch: when false, the INC state uses only the efficiency and
  // monotone-speedup checks, not the RelativeSpeedup test. Superlinear
  // applications then keep growing well past their useful range.
  bool use_relative_speedup = true;

  // Dynamic target efficiency (Sec. 4.1: "Alternatively, it is dynamically
  // set depending on the load of the system"). When enabled, the effective
  // target_eff moves linearly with machine utilization between
  // min_target_eff (empty machine: hand out processors generously) and
  // max_target_eff (saturated machine: demand efficient use).
  bool dynamic_target = false;
  double min_target_eff = 0.5;
  double max_target_eff = 0.85;
};

// The allocation decision produced by one automaton evaluation.
struct PdpaDecision {
  PdpaState next_state = PdpaState::kNoRef;
  int next_alloc = 0;
  // True when next_alloc differs from the evaluated allocation.
  bool changed = false;
};

// Per-application search automaton. The caller owns the mapping between
// decisions and actual processor assignment.
class PdpaAutomaton {
 public:
  PdpaAutomaton(PdpaParams params, int request);

  PdpaState state() const { return state_; }
  int current_alloc() const { return cur_alloc_; }
  int request() const { return request_; }

  // True when this application will not ask for a different allocation on
  // its own: STABLE, or stuck at the 1-CPU floor with bad performance.
  bool Settled() const;
  // True when the application is running below target efficiency at the
  // minimum allocation — the "bad performance" trigger of the ML rule.
  bool BadPerformance() const;

  // Job admission: PDPA initially allocates min(request, free). Returns the
  // initial allocation and primes the automaton (state NO_REF).
  int OnJobStart(int free_cpus);

  // Processor count changed by an external actor (the RM redistributed
  // processors after a completion, or clipped a grow because the free pool
  // shrank). Keeps the automaton's view consistent without a transition.
  void SyncAllocation(int alloc);

  // Runtime parameter adjustment (the paper allows changing the policy
  // parameters while applications run; the dynamic-target mode uses this).
  void SetTargetEff(double target_eff);
  double target_eff() const { return params_.target_eff; }

  // Main evaluation: the application reported `speedup` (versus one
  // processor) measured with `procs` processors; `free_cpus` is the current
  // free pool, bounding growth. Applies the transition and returns the
  // decision. `procs` is normally current_alloc().
  PdpaDecision OnReport(double speedup, int procs, int free_cpus);

  // Free processors appeared (e.g. a job finished). A STABLE application
  // that was still very efficient may resume the upward search.
  PdpaDecision OnFreeCapacity(int free_cpus);

  double last_speedup() const { return cur_speedup_; }
  double last_efficiency() const;
  int stable_exits() const { return stable_exits_; }

  std::string DebugString() const;

  // True when the automaton is STABLE only because the machine had no free
  // processors (resource-limited), as opposed to having hit its efficiency
  // or relative-speedup ceiling (performance-limited). Only resource-limited
  // applications resume the upward search when capacity frees up.
  bool resource_limited() const { return resource_limited_; }

 private:
  PdpaDecision Transition(PdpaState next_state, int next_alloc);
  int GrowTarget(int free_cpus) const;
  int ShrinkTarget() const;

  PdpaParams params_;
  int request_;

  PdpaState state_ = PdpaState::kNoRef;
  int cur_alloc_ = 0;
  // Allocation and speedup at the previous (different) allocation — "the
  // recent past of the application" PDPA remembers.
  int last_alloc_ = 0;
  double last_speedup_ = 0.0;
  double cur_speedup_ = 0.0;
  bool has_report_ = false;
  int stable_exits_ = 0;
  bool resource_limited_ = false;
};

// Coordinated multiprogramming-level rule (Sec. 4.3): a new application may
// start when free processors exist and every running application is settled,
// or when running applications show bad performance anyway. A default ML
// acts as an initial admission credit (the paper uses 4).
struct PdpaMlParams {
  int default_ml = 4;
  // Ablation switch: when false the coordinated rule is disabled and PDPA
  // enforces default_ml as a fixed multiprogramming level like the
  // baselines. Isolates the allocation policy's contribution from the ML
  // policy's (the paper calls them orthogonal and complementary).
  bool coordinated = true;
};

// The whole rule, applied to counts and the running automatons' two flags:
// `all_settled` (every running automaton Settled(), true when none runs)
// and `any_bad` (some running automaton BadPerformance()). Jobs run to
// completion on at least one processor, so admission needs a free processor
// first, even within the default-ML credit.
bool PdpaShouldAdmit(const PdpaMlParams& params, int free_cpus, int running_jobs,
                     bool all_settled, bool any_bad);

}  // namespace pdpa

#endif  // SRC_CORE_PDPA_H_
