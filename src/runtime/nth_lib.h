// NthLib binding: the glue between one application, its SelfAnalyzer and the
// NANOS Resource Manager.
//
// In the real system NthLib is the OpenMP runtime: it requests processors,
// reacts to allocation changes (re-forming the thread team between parallel
// regions) and hosts the SelfAnalyzer. In the simulator the Application
// models the execution; this binding reproduces the *coordination* contract:
//   RM -> runtime : SetProcessors(n)
//   runtime -> RM : performance reports (appended to the RM's buffer)
#ifndef SRC_RUNTIME_NTH_LIB_H_
#define SRC_RUNTIME_NTH_LIB_H_

#include <memory>
#include <vector>

#include "src/app/application.h"
#include "src/common/rng.h"
#include "src/runtime/self_analyzer.h"

namespace pdpa {

class NthLibBinding {
 public:
  // `counters` are the run's analyzer instruments, forwarded to the
  // SelfAnalyzer.
  NthLibBinding(std::unique_ptr<Application> app, SelfAnalyzerParams analyzer_params, Rng rng,
                AnalyzerCounters counters);

  NthLibBinding(const NthLibBinding&) = delete;
  NthLibBinding& operator=(const NthLibBinding&) = delete;

  Application& app() { return *app_; }
  const Application& app() const { return *app_; }
  SelfAnalyzer& analyzer() { return *analyzer_; }
  const SelfAnalyzer& analyzer() const { return *analyzer_; }

  // Where the SelfAnalyzer appends its measurements for the scheduler.
  void set_report_sink(std::vector<PerfReport>* sink) { analyzer_->set_report_sink(sink); }

  // Re-initializes the binding in place for job `id` borrowing `*profile`
  // (see Application::Reset and SelfAnalyzer::Reset): equal to a fresh
  // binding over a fresh resident Application with the same arguments.
  void Reset(JobId id, const AppProfile* profile, Rng rng);

  // RM-side entry points.
  void StartJob(SimTime now);
  // Starts without engaging the SelfAnalyzer's baseline protocol: used for
  // rigid (non-malleable) jobs and for time-sharing runtimes that do not
  // coordinate with the RM.
  void StartJobWithoutAnalyzer(SimTime now);
  void SetProcessors(int procs, SimTime now);

  // Drives the application forward; called every simulation tick.
  void Tick(SimTime now, SimDuration dt) { app_->Advance(now, dt); }

 private:
  std::unique_ptr<Application> app_;
  std::unique_ptr<SelfAnalyzer> analyzer_;
};

}  // namespace pdpa

#endif  // SRC_RUNTIME_NTH_LIB_H_
