#include "src/workload/catalog.h"

#include "src/common/logging.h"

namespace pdpa {

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kW1:
      return "w1(swim+bt)";
    case WorkloadId::kW2:
      return "w2(bt+hydro2d)";
    case WorkloadId::kW3:
      return "w3(bt+apsi)";
    case WorkloadId::kW4:
      return "w4(all)";
  }
  return "?";
}

const char* WorkloadShortName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kW1:
      return "w1";
    case WorkloadId::kW2:
      return "w2";
    case WorkloadId::kW3:
      return "w3";
    case WorkloadId::kW4:
      return "w4";
  }
  return "w";
}

bool ParseWorkloadId(std::string_view text, WorkloadId* out) {
  for (const WorkloadId id : {WorkloadId::kW1, WorkloadId::kW2, WorkloadId::kW3, WorkloadId::kW4}) {
    if (text == WorkloadShortName(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

std::array<double, kNumAppClasses> WorkloadShares(WorkloadId id) {
  // Index order: swim, bt, hydro2d, apsi.
  switch (id) {
    case WorkloadId::kW1:
      return {0.5, 0.5, 0.0, 0.0};
    case WorkloadId::kW2:
      return {0.0, 0.5, 0.5, 0.0};
    case WorkloadId::kW3:
      return {0.0, 0.5, 0.0, 0.5};
    case WorkloadId::kW4:
      return {0.25, 0.25, 0.25, 0.25};
  }
  PDPA_CHECK(false) << "unknown workload";
  return {};
}

std::vector<JobSpec> BuildWorkload(WorkloadId id, double load, std::uint64_t seed, bool untuned,
                                   int num_cpus) {
  WorkloadGenSpec spec;
  spec.load_share = WorkloadShares(id);
  spec.load = load;
  spec.num_cpus = num_cpus;
  spec.request_override = untuned ? 30 : 0;
  spec.seed = seed;
  return GenerateWorkload(spec);
}

}  // namespace pdpa
