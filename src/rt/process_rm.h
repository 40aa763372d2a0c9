// InProcessRm: PDPA driving real malleable applications inside one process.
//
// Each registered application runs in its own thread, executing iterations
// of a kernel through a MalleableTeam and timing them with a SelfTuner. The
// RM loop polls the tuners and runs one PdpaAutomaton per application — the
// exact same automaton the simulator uses — resizing teams within a global
// worker budget.
#ifndef SRC_RT_PROCESS_RM_H_
#define SRC_RT_PROCESS_RM_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pdpa.h"
#include "src/rt/kernels.h"
#include "src/rt/malleable_team.h"
#include "src/rt/self_tuner.h"

namespace pdpa {

// One live application: a kernel iterated `iterations` times on a malleable
// team, self-measured by a SelfTuner.
class RtApplication {
 public:
  struct Options {
    // Parallel loops (regions) per outer-loop iteration.
    int loops_per_iteration = 1;
    // "Binary-only" mode: iteration boundaries are not announced by the
    // application; they are discovered from the stream of parallel-loop
    // identifiers with the Dynamic Periodicity Detector, exactly as the
    // paper's dynamic-interposition path does. Measurements start once the
    // detector locks onto the period.
    bool detect_iterations_with_dpd = false;
    // The tuner's clock (see SelfTuner); empty times iterations on the
    // host's monotonic clock.
    SelfTuner::Clock clock;
  };

  RtApplication(JobId id, std::string name, std::unique_ptr<IterativeKernel> kernel,
                int iterations, int request, SelfTuner::Params tuner_params);
  RtApplication(JobId id, std::string name, std::unique_ptr<IterativeKernel> kernel,
                int iterations, int request, SelfTuner::Params tuner_params, Options options);

  JobId id() const { return id_; }
  const std::string& name() const { return name_; }
  int request() const { return request_; }

  // Target width; read between iterations. Set by the RM.
  void set_allocated(int width) { allocated_.store(width); }
  int allocated() const { return allocated_.load(); }

  bool finished() const { return finished_.load(); }
  int completed_iterations() const { return completed_iterations_.load(); }

  SelfTuner& tuner() { return tuner_; }

  // Blocking: runs all iterations. Called from the application thread.
  void Run();

  // In DPD mode: iteration boundaries the detector reported (for tests).
  int detected_boundaries() const { return detected_boundaries_.load(); }

 private:
  void RunExplicit();
  void RunWithDpd();

  JobId id_;
  std::string name_;
  std::unique_ptr<IterativeKernel> kernel_;
  int iterations_;
  int request_;
  SelfTuner tuner_;
  MalleableTeam team_;
  Options options_;
  std::atomic<int> allocated_{1};
  std::atomic<bool> finished_{false};
  std::atomic<int> completed_iterations_{0};
  std::atomic<int> detected_boundaries_{0};
};

// The in-process resource manager. Owns the application threads and the
// PDPA decision loop.
class InProcessRm {
 public:
  struct Params {
    // Total workers the process may use across all applications (the
    // "machine size").
    int cpu_budget = 8;
    // PDPA evaluation cadence.
    double quantum_ms = 50.0;
    PdpaParams pdpa;
    // Coordinated multiprogramming level, like the simulator QS: up to
    // `default_ml` applications run immediately; further registered
    // applications wait until every running one is settled and workers are
    // free (PdpaShouldAdmit). 0 means "run everything at once".
    int default_ml = 0;
  };

  explicit InProcessRm(Params params);
  ~InProcessRm();

  InProcessRm(const InProcessRm&) = delete;
  InProcessRm& operator=(const InProcessRm&) = delete;

  // Registers an application before Run(). Takes ownership.
  void AddApplication(std::unique_ptr<RtApplication> app);

  // Runs every application to completion under PDPA control. Blocking.
  void Run();

  // Final allocation each application converged to (valid after Run()).
  int FinalAllocation(JobId job) const;
  const PdpaAutomaton* AutomatonFor(JobId job) const;

  // Peak number of applications running concurrently (valid after Run()).
  int max_concurrency() const { return max_concurrency_; }

 private:
  struct Entry {
    std::unique_ptr<RtApplication> app;
    std::unique_ptr<PdpaAutomaton> automaton;
    int final_alloc = 1;
    bool started = false;
    // Last report generation consumed (reports are polled).
    double last_speedup_seen = -1.0;
    int last_procs_seen = -1;
  };

  int FreeCpus() const;
  bool ShouldAdmitNext() const;

  Params params_;
  std::vector<Entry> entries_;
  bool ran_ = false;
  int max_concurrency_ = 0;
};

}  // namespace pdpa

#endif  // SRC_RT_PROCESS_RM_H_
