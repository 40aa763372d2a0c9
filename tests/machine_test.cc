// Unit and property tests for the machine model's affinity-preserving
// allocation engine.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/machine/machine.h"

namespace pdpa {
namespace {

// The CPUs `job` owns, ascending, read one by one through OwnerOf.
std::vector<int> CpusOwnedBy(const Machine& machine, JobId job) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    if (machine.OwnerOf(cpu) == job) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

TEST(MachineTest, StartsIdle) {
  Machine machine(8);
  EXPECT_EQ(machine.FreeCpus(), 8);
  EXPECT_EQ(machine.OwnerOf(0), kIdleJob);
  EXPECT_TRUE(machine.RunningJobs().empty());
}

TEST(MachineTest, ApplyAllocationAssignsExactCounts) {
  Machine machine(10);
  const auto handoffs = machine.ApplyAllocation({{1, 4}, {2, 3}});
  EXPECT_EQ(machine.CountOf(1), 4);
  EXPECT_EQ(machine.CountOf(2), 3);
  EXPECT_EQ(machine.FreeCpus(), 3);
  EXPECT_EQ(handoffs.size(), 7u);
  for (const CpuHandoff& h : handoffs) {
    EXPECT_EQ(h.from, kIdleJob);
  }
}

TEST(MachineTest, ShrinkReleasesHighestCpusFirst) {
  Machine machine(10);
  machine.ApplyAllocation({{1, 6}});
  // Job 1 owns cpus 0-5. Shrink to 3: cpus 3-5 released, 0-2 kept (affinity).
  machine.ApplyAllocation({{1, 3}});
  EXPECT_EQ(CpusOwnedBy(machine, 1), (std::vector<int>{0, 1, 2}));
}

TEST(MachineTest, GrowPrefersIdleCpus) {
  Machine machine(10);
  machine.ApplyAllocation({{1, 3}, {2, 3}});
  const std::vector<int> before = CpusOwnedBy(machine, 1);
  machine.ApplyAllocation({{1, 5}, {2, 3}});
  // Job 1 kept all its CPUs and gained two idle ones; job 2 untouched.
  for (int cpu : before) {
    EXPECT_EQ(machine.OwnerOf(cpu), 1) << "cpu " << cpu;
  }
  EXPECT_EQ(machine.CountOf(1), 5);
  EXPECT_EQ(machine.CountOf(2), 3);
}

TEST(MachineTest, DirectHandoffCollapsesReleaseAcquirePairs) {
  Machine machine(4);
  machine.ApplyAllocation({{1, 4}});
  // All CPUs move from job 1 to job 2: each handoff must be 1 -> 2 directly,
  // not 1 -> idle plus idle -> 2.
  const auto handoffs = machine.ApplyAllocation({{2, 4}});
  ASSERT_EQ(handoffs.size(), 4u);
  for (const CpuHandoff& h : handoffs) {
    EXPECT_EQ(h.from, 1);
    EXPECT_EQ(h.to, 2);
  }
}

TEST(MachineTest, JobAbsentFromTargetIsReleased) {
  Machine machine(6);
  machine.ApplyAllocation({{1, 3}, {2, 3}});
  machine.ApplyAllocation({{2, 3}});
  EXPECT_EQ(machine.CountOf(1), 0);
  EXPECT_EQ(machine.CountOf(2), 3);
  EXPECT_EQ(machine.FreeCpus(), 3);
}

TEST(MachineTest, ReleaseJobFreesEverything) {
  Machine machine(6);
  machine.ApplyAllocation({{7, 4}});
  std::vector<CpuHandoff> handoffs;
  machine.ReleaseJob(7, &handoffs);
  EXPECT_EQ(handoffs.size(), 4u);
  EXPECT_EQ(machine.FreeCpus(), 6);
  machine.ReleaseJob(7, &handoffs);
  EXPECT_TRUE(handoffs.empty());
}

TEST(MachineTest, ApplyPartialOverwritesTheHandoffBuffer) {
  Machine machine(6);
  std::vector<CpuHandoff> handoffs;
  machine.ApplyPartial({{1, 4}}, &handoffs);
  EXPECT_EQ(handoffs.size(), 4u);
  // Job 1 shrinks to 2 and job 2 takes its two CPUs plus the two idle ones;
  // job 1's released CPUs move directly.
  machine.ApplyPartial({{1, 2}, {2, 4}}, &handoffs);
  ASSERT_EQ(handoffs.size(), 4u);
  EXPECT_EQ(machine.CountOf(1), 2);
  EXPECT_EQ(machine.CountOf(2), 4);
  EXPECT_EQ(machine.FreeCpus(), 0);
  int direct = 0;
  for (const CpuHandoff& h : handoffs) {
    direct += h.from == 1 && h.to == 2;
  }
  EXPECT_EQ(direct, 2);
}

TEST(MachineTest, FreeCountTracksEveryOwnershipChange) {
  Machine machine(8);
  std::vector<CpuHandoff> handoffs;
  machine.ApplyAllocation({{1, 3}, {2, 2}});
  EXPECT_EQ(machine.FreeCpus(), 3);
  machine.SetOwner(7, 3);
  machine.SetOwner(7, 4);  // owned to owned: no change in the count
  EXPECT_EQ(machine.FreeCpus(), 2);
  machine.SetOwner(0, kIdleJob);
  EXPECT_EQ(machine.FreeCpus(), 3);
  machine.ApplyPartial({{2, 4}}, &handoffs);
  EXPECT_EQ(machine.FreeCpus(), 1);
  machine.ReleaseJob(2, &handoffs);
  EXPECT_EQ(machine.FreeCpus(), 5);
  machine.AuditInvariants();
  int scanned = 0;
  for (int cpu = 0; cpu < machine.num_cpus(); ++cpu) {
    scanned += machine.OwnerOf(cpu) == kIdleJob;
  }
  EXPECT_EQ(machine.FreeCpus(), scanned);
}

TEST(MachineTest, RunningJobsListsOwners) {
  Machine machine(6);
  machine.ApplyAllocation({{3, 2}, {9, 2}});
  const auto jobs = machine.RunningJobs();
  EXPECT_EQ(jobs.size(), 2u);
}

TEST(MachineDeathTest, OvercommitRejected) {
  Machine machine(4);
  EXPECT_DEATH(machine.ApplyAllocation({{1, 3}, {2, 3}}), "Check failed");
}

TEST(MachineDeathTest, NegativeCountRejected) {
  Machine machine(4);
  EXPECT_DEATH(machine.ApplyAllocation({{1, -1}}), "Check failed");
}

// Property test: random sequences of allocations maintain exact counts and
// never move a CPU without reporting a handoff.
TEST(MachinePropertyTest, RandomAllocationSequencesStayConsistent) {
  Rng rng(2024);
  Machine machine(60);
  std::map<JobId, int> current;
  for (int round = 0; round < 300; ++round) {
    // Mutate the target randomly under the capacity constraint.
    std::map<JobId, int> target = current;
    const JobId job = rng.UniformInt(0, 7);
    int others = 0;
    for (const auto& [j, c] : target) {
      if (j != job) {
        others += c;
      }
    }
    target[job] = rng.UniformInt(0, 60 - others);
    if (target[job] == 0) {
      target.erase(job);
    }

    // Snapshot, apply, verify.
    std::map<JobId, std::vector<int>> before;
    for (const auto& [j, c] : current) {
      before[j] = CpusOwnedBy(machine, j);
    }
    const auto handoffs = machine.ApplyAllocation(target);
    int total = 0;
    for (const auto& [j, c] : target) {
      ASSERT_EQ(machine.CountOf(j), c) << "round " << round;
      total += c;
    }
    ASSERT_EQ(machine.FreeCpus(), 60 - total);
    // Affinity: a job whose target did not shrink keeps all previous CPUs.
    for (const auto& [j, cpus] : before) {
      const auto it = target.find(j);
      const int want = it == target.end() ? 0 : it->second;
      if (want >= static_cast<int>(cpus.size())) {
        for (int cpu : cpus) {
          ASSERT_EQ(machine.OwnerOf(cpu), j) << "job " << j << " lost a CPU it should have kept";
        }
      }
    }
    // Every ownership difference is covered by exactly one handoff.
    for (const CpuHandoff& h : handoffs) {
      ASSERT_EQ(machine.OwnerOf(h.cpu), h.to);
    }
    current = target;
  }
}

}  // namespace
}  // namespace pdpa
