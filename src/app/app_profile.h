// Application catalog: the four workload applications from the paper.
//
// swim (SpecFP95)    — superlinear speedup in the 8..16 CPU range
// bt.A (NAS PB)      — good scalability
// hydro2d (SpecFP95) — medium scalability
// apsi (SpecFP95)    — does not scale at all
//
// The curves are digitized from Fig. 3 of the paper; the sequential work
// sizes are calibrated so tuned execution times land in the same range the
// paper reports (tens to ~100 seconds).
#ifndef SRC_APP_APP_PROFILE_H_
#define SRC_APP_APP_PROFILE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/app/speedup_model.h"
#include "src/common/time_types.h"

namespace pdpa {

enum class AppClass : int {
  kSwim = 0,
  kBt = 1,
  kHydro2d = 2,
  kApsi = 3,
};

inline constexpr int kNumAppClasses = 4;

const char* AppClassName(AppClass app_class);

// Immutable description of an application type. Shared between all job
// instances of that type within a workload.
struct AppProfile {
  std::string name;
  AppClass app_class = AppClass::kSwim;

  std::shared_ptr<const SpeedupModel> speedup;

  // Total work in sequential-equivalent seconds: execution time on one CPU.
  double sequential_work_s = 0.0;

  // Number of iterations of the outer (iterative parallel region) loop.
  int iterations = 1;

  // Default number of processors the user requests (OMP_NUM_THREADS).
  int default_request = 30;

  // Processors the SelfAnalyzer uses for the baseline measurement.
  int baseline_procs = 4;

  // Execution time with p processors, ignoring scheduling effects.
  double IdealExecSeconds(double p) const;

  // CPU demand (processor-seconds) when run with its default request; used
  // by the workload generator to hit a target machine load.
  double CpuDemandAtRequest() const;

  // Field-wise; the speedup models compare by identity.
  bool operator==(const AppProfile&) const = default;
};

// Factory functions for the paper's applications.
AppProfile MakeSwimProfile();
AppProfile MakeBtProfile();
AppProfile MakeHydro2dProfile();
AppProfile MakeApsiProfile();
AppProfile MakeProfile(AppClass app_class);

// Process-wide immutable instance of MakeProfile(app_class), built once on
// first use (thread-safe). Hot paths that need the profile per job start —
// the queuing system starts every job with one — should take this reference
// instead of re-materializing the profile (the curve tables allocate).
const AppProfile& CachedProfile(AppClass app_class);

// Builder for synthetic profiles, used by tests, examples and user code to
// model applications outside the paper's catalog.
class AppProfileBuilder {
 public:
  explicit AppProfileBuilder(std::string name);

  AppProfileBuilder& WithAmdahl(double parallel_fraction);
  AppProfileBuilder& WithCurve(std::vector<std::pair<double, double>> points);
  AppProfileBuilder& WithSaturating(double knee, double max_speedup);
  AppProfileBuilder& WithWork(double sequential_seconds);
  AppProfileBuilder& WithIterations(int iterations);
  AppProfileBuilder& WithRequest(int request);
  AppProfileBuilder& WithBaselineProcs(int baseline_procs);

  AppProfile Build() const;

 private:
  AppProfile profile_;
};

}  // namespace pdpa

#endif  // SRC_APP_APP_PROFILE_H_
