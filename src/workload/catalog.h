// The paper's four workloads (Table 1): per-class shares of the generated
// processor demand.
#ifndef SRC_WORKLOAD_CATALOG_H_
#define SRC_WORKLOAD_CATALOG_H_

#include <array>
#include <string_view>
#include <vector>

#include "src/qs/job.h"
#include "src/qs/workload_generator.h"

namespace pdpa {

enum class WorkloadId : int {
  kW1 = 1,  // 50% swim, 50% bt
  kW2 = 2,  // 50% bt, 50% hydro2d
  kW3 = 3,  // 50% bt, 50% apsi
  kW4 = 4,  // 25% each
};

const char* WorkloadName(WorkloadId id);

// Short id for filenames and cell names ("w1"), without the descriptive
// suffix that WorkloadName adds ("w1(swim+bt)" would put parentheses in
// paths).
const char* WorkloadShortName(WorkloadId id);
// Accepts the short names ("w1".."w4"). Returns false on anything else,
// leaving *out untouched.
bool ParseWorkloadId(std::string_view text, WorkloadId* out);

std::array<double, kNumAppClasses> WorkloadShares(WorkloadId id);

// Builds the arrival trace for a workload at the given load. `untuned`
// overrides every request to 30 processors (the paper's "not tuned"
// experiments, Tables 3 and 4).
std::vector<JobSpec> BuildWorkload(WorkloadId id, double load, std::uint64_t seed,
                                   bool untuned = false, int num_cpus = 60);

}  // namespace pdpa

#endif  // SRC_WORKLOAD_CATALOG_H_
