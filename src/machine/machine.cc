#include "src/machine/machine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace pdpa {

Machine::Machine(int usable_cpus) : num_cpus_(usable_cpus), free_cpus_(usable_cpus) {
  PDPA_CHECK_GT(usable_cpus, 0);
  owner_.assign(static_cast<std::size_t>(usable_cpus), kIdleJob);
}

void Machine::AuditInvariants() const {
  const auto scanned = std::count(owner_.begin(), owner_.end(), kIdleJob);
  PDPA_CHECK_EQ(free_cpus_, static_cast<int>(scanned)) << "free-CPU count out of step";
}

int Machine::CountOf(JobId job) const {
  int count = 0;
  for (JobId owner : owner_) {
    if (owner == job) {
      ++count;
    }
  }
  return count;
}

std::vector<JobId> Machine::RunningJobs() const {
  std::vector<JobId> jobs;
  for (JobId owner : owner_) {
    if (owner != kIdleJob && std::find(jobs.begin(), jobs.end(), owner) == jobs.end()) {
      jobs.push_back(owner);
    }
  }
  return jobs;
}

std::vector<CpuHandoff> Machine::ApplyAllocation(const std::map<JobId, int>& target) {
  // Validate the request before mutating anything.
  int total = 0;
  for (const auto& [job, count] : target) {
    PDPA_CHECK_GE(count, 0) << "job " << job;
    total += count;
  }
  PDPA_CHECK_LE(total, num_cpus_);

  std::vector<CpuHandoff> handoffs;

  // Phase 1: shrink. Jobs above target (or absent from target) release their
  // highest-numbered CPUs first so partitions stay contiguous-ish and the
  // kept CPUs are the longest-held ones (affinity).
  std::map<JobId, int> current;
  for (int cpu = 0; cpu < num_cpus_; ++cpu) {
    const JobId owner = owner_[static_cast<std::size_t>(cpu)];
    if (owner != kIdleJob) {
      ++current[owner];
    }
  }
  for (const auto& [job, count] : current) {
    const auto it = target.find(job);
    const int want = it == target.end() ? 0 : it->second;
    int excess = count - want;
    for (int cpu = num_cpus_ - 1; cpu >= 0 && excess > 0; --cpu) {
      if (owner_[static_cast<std::size_t>(cpu)] == job) {
        Assign(static_cast<std::size_t>(cpu), kIdleJob);
        handoffs.push_back(CpuHandoff{cpu, job, kIdleJob});
        --excess;
      }
    }
  }

  // Phase 2: grow. Jobs below target take the lowest-numbered idle CPUs.
  // Deterministic iteration order (std::map) keeps runs reproducible.
  for (const auto& [job, want] : target) {
    int have = 0;
    for (JobId owner : owner_) {
      if (owner == job) {
        ++have;
      }
    }
    for (int cpu = 0; cpu < num_cpus_ && have < want; ++cpu) {
      if (owner_[static_cast<std::size_t>(cpu)] == kIdleJob) {
        // If this CPU was released in phase 1 the handoff list already has a
        // (cpu, from, idle) entry; collapse the pair into a direct handoff so
        // migration accounting sees one move, not two.
        bool collapsed = false;
        for (CpuHandoff& h : handoffs) {
          if (h.cpu == cpu && h.to == kIdleJob) {
            h.to = job;
            collapsed = true;
            break;
          }
        }
        if (!collapsed) {
          handoffs.push_back(CpuHandoff{cpu, kIdleJob, job});
        }
        Assign(static_cast<std::size_t>(cpu), job);
        ++have;
      }
    }
    PDPA_CHECK_EQ(have, want) << "job " << job;
  }
  return handoffs;
}

void Machine::ApplyPartial(const std::vector<std::pair<JobId, int>>& target,
                           std::vector<CpuHandoff>* handoffs_out) {
  // Validate before mutating: the named jobs' growth must fit in the CPUs
  // they free plus the idle pool (other jobs are untouched by contract).
  int want_total = 0;
  int have_total = 0;
  for (const auto& [job, count] : target) {
    PDPA_CHECK_GE(count, 0) << "job " << job;
    want_total += count;
  }
  for (int cpu = 0; cpu < num_cpus_; ++cpu) {
    const JobId owner = owner_[static_cast<std::size_t>(cpu)];
    if (owner == kIdleJob) {
      continue;
    }
    for (const auto& [job, count] : target) {
      if (job == owner) {
        ++have_total;
        break;
      }
    }
  }
  PDPA_CHECK_LE(want_total, have_total + free_cpus_);

  std::vector<CpuHandoff>& handoffs = *handoffs_out;
  handoffs.clear();

  // Phase 1: shrink, ascending JobId (the input is sorted), releasing the
  // highest-numbered CPUs first — identical order to ApplyAllocation
  // restricted to the named jobs, so affinity behavior matches.
  for (const auto& [job, want] : target) {
    int excess = CountOf(job) - want;
    for (int cpu = num_cpus_ - 1; cpu >= 0 && excess > 0; --cpu) {
      if (owner_[static_cast<std::size_t>(cpu)] == job) {
        Assign(static_cast<std::size_t>(cpu), kIdleJob);
        handoffs.push_back(CpuHandoff{cpu, job, kIdleJob});
        --excess;
      }
    }
  }

  // Phase 2: grow, ascending JobId, taking the lowest-numbered idle CPUs.
  for (const auto& [job, want] : target) {
    int have = CountOf(job);
    for (int cpu = 0; cpu < num_cpus_ && have < want; ++cpu) {
      if (owner_[static_cast<std::size_t>(cpu)] == kIdleJob) {
        // Collapse a phase-1 release of this CPU into one direct handoff so
        // migration accounting sees one move, not two.
        bool collapsed = false;
        for (CpuHandoff& h : handoffs) {
          if (h.cpu == cpu && h.to == kIdleJob) {
            h.to = job;
            collapsed = true;
            break;
          }
        }
        if (!collapsed) {
          handoffs.push_back(CpuHandoff{cpu, kIdleJob, job});
        }
        Assign(static_cast<std::size_t>(cpu), job);
        ++have;
      }
    }
    PDPA_CHECK_EQ(have, want) << "job " << job;
  }
}

void Machine::ReleaseJob(JobId job, std::vector<CpuHandoff>* handoffs) {
  handoffs->clear();
  for (int cpu = 0; cpu < num_cpus_; ++cpu) {
    if (owner_[static_cast<std::size_t>(cpu)] == job) {
      Assign(static_cast<std::size_t>(cpu), kIdleJob);
      handoffs->push_back(CpuHandoff{cpu, job, kIdleJob});
    }
  }
}

}  // namespace pdpa
