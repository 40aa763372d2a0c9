// Integration tests for the ResourceManager: job lifecycle, policy
// plumbing, plan application, trace hookup, admission coordination.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/pdpa_policy.h"
#include "src/obs/event_log.h"
#include "src/rm/equal_efficiency.h"
#include "src/rm/equipartition.h"
#include "src/rm/irix.h"
#include "src/rm/resource_manager.h"

namespace pdpa {
namespace {

AppProfile FastLinearProfile(double work_s = 4.0, int iters = 8) {
  AppProfile profile;
  profile.name = "fast";
  profile.speedup = std::make_shared<TableSpeedup>(
      std::vector<std::pair<double, double>>{{1, 1.0}, {32, 32.0}});
  profile.sequential_work_s = work_s;
  profile.iterations = iters;
  profile.default_request = 8;
  profile.baseline_procs = 2;
  return profile;
}

ResourceManager::Params FastParams() {
  ResourceManager::Params params;
  params.num_cpus = 16;
  params.analyzer.noise_sigma = 0.0;
  params.analyzer.amdahl_factor = 1.0;
  params.app_costs.reconfig_freeze = 0;
  params.app_costs.warmup = 0;
  return params;
}

TEST(ResourceManagerTest, StartRunFinishUnderEquipartition) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  std::vector<JobId> finished;
  rm.set_job_finish_callback([&](JobId job, SimTime) { finished.push_back(job); });
  rm.Start();
  rm.StartJob(0, FastLinearProfile(), 8, 0);
  EXPECT_EQ(rm.running_jobs(), 1);
  EXPECT_EQ(rm.AllocationOf(0), 8);
  EXPECT_EQ(rm.machine().FreeCpus(), 8);
  sim.RunUntil(60 * kSecond);
  EXPECT_EQ(finished, std::vector<JobId>{0});
  EXPECT_EQ(rm.running_jobs(), 0);
  EXPECT_EQ(rm.machine().FreeCpus(), 16);
}

TEST(ResourceManagerTest, EquipartitionRepartitionsOnSecondArrival) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  rm.Start();
  rm.StartJob(0, FastLinearProfile(40.0, 40), 16, 0);
  EXPECT_EQ(rm.AllocationOf(0), 16);
  sim.RunUntil(kSecond);
  rm.StartJob(1, FastLinearProfile(40.0, 40), 16, sim.now());
  EXPECT_EQ(rm.AllocationOf(0), 8);
  EXPECT_EQ(rm.AllocationOf(1), 8);
}

TEST(ResourceManagerTest, PdpaShrinksUnscalableJob) {
  Simulation sim;
  // A job that does not scale: speedup flat at 1.3 beyond 2 procs.
  AppProfile profile;
  profile.name = "flat";
  profile.speedup = std::make_shared<TableSpeedup>(
      std::vector<std::pair<double, double>>{{1, 1.0}, {2, 1.25}, {32, 1.3}});
  profile.sequential_work_s = 60.0;
  profile.iterations = 60;
  profile.default_request = 16;
  profile.baseline_procs = 1;

  ResourceManager rm(FastParams(), std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{}),
                     &sim, Rng(1));
  rm.Start();
  rm.StartJob(0, profile, 16, 0);
  EXPECT_EQ(rm.AllocationOf(0), 16);
  sim.RunUntil(30 * kSecond);
  // PDPA must have walked the allocation down to the floor.
  EXPECT_LE(rm.AllocationOf(0), 2);
}

TEST(ResourceManagerTest, PdpaGrowsEfficientJobIntoFreePool) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{}),
                     &sim, Rng(1));
  rm.Start();
  // Request 16 but only 4 free at start (simulated by a squatter job).
  rm.StartJob(9, FastLinearProfile(400.0, 100), 12, 0);
  rm.StartJob(0, FastLinearProfile(100.0, 100), 16, 0);
  EXPECT_EQ(rm.AllocationOf(0), 4);
  sim.RunUntil(20 * kSecond);
  // Linear speedup: efficiency ~1 at every count; PDPA grows it to the pool
  // limit... the squatter holds 12, so job 0 ends at 4 until the squatter
  // finishes, then grows. We mainly assert no shrink happened.
  EXPECT_GE(rm.AllocationOf(0), 4);
  const int total = rm.AllocationOf(0) + rm.AllocationOf(9);
  EXPECT_LE(total, 16);
}

TEST(ResourceManagerTest, AllocIntegralAccumulates) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  rm.Start();
  rm.StartJob(0, FastLinearProfile(), 8, 0);
  sim.RunUntil(60 * kSecond);
  const auto& integral = rm.alloc_integral_us();
  ASSERT_TRUE(integral.contains(0));
  // 4 s of work at 8 procs (after a baseline phase at 2): the integral is
  // roughly procs * exec_time; just sanity-check the order of magnitude.
  EXPECT_GT(integral.at(0), 0.5 * 8 * kSecond);
}

TEST(ResourceManagerTest, TraceReceivesHandoffs) {
  TraceRecorder trace(16);
  Simulation sim(Simulation::Sinks{.trace = &trace});
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  rm.Start();
  rm.StartJob(0, FastLinearProfile(), 8, 0);
  sim.RunUntil(30 * kSecond);
  trace.Finalize(sim.now());
  const TraceStats stats = trace.ComputeStats();
  EXPECT_GT(stats.total_bursts, 0);
  EXPECT_GT(stats.utilization, 0.0);
}

TEST(ResourceManagerTest, IrixTimeSharingRunsJobsWithoutPartitions) {
  Simulation sim;
  ResourceManager rm(FastParams(),
                     std::make_unique<IrixTimeShare>(IrixTimeShare::Params{}, Rng(7)), &sim,
                     Rng(1));
  std::vector<JobId> finished;
  rm.set_job_finish_callback([&](JobId job, SimTime) { finished.push_back(job); });
  rm.Start();
  rm.StartJob(0, FastLinearProfile(8.0, 8), 8, 0);
  rm.StartJob(1, FastLinearProfile(8.0, 8), 8, 0);
  sim.RunUntil(120 * kSecond);
  EXPECT_EQ(finished.size(), 2u);
}

TEST(ResourceManagerTest, CanStartJobFollowsPolicyAdmission) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(2), &sim, Rng(1));
  rm.Start();
  EXPECT_TRUE(rm.CanStartJob());
  rm.StartJob(0, FastLinearProfile(100.0, 50), 8, 0);
  EXPECT_TRUE(rm.CanStartJob());
  rm.StartJob(1, FastLinearProfile(100.0, 50), 8, 0);
  EXPECT_FALSE(rm.CanStartJob());  // fixed ML = 2
}

TEST(ResourceManagerTest, ManySimultaneousCompletionsInOneTick) {
  // Regression: identical jobs with identical allocations all hit their
  // last iteration boundary in the same tick. The job table must retire
  // the whole batch in one pass (the old arrival-order vector erased one
  // element per job, O(n^2) and easy to get wrong mid-iteration).
  Simulation sim;
  ResourceManager::Params params = FastParams();
  params.num_cpus = 32;
  ResourceManager rm(params, std::make_unique<Equipartition>(16), &sim, Rng(1));
  std::vector<std::pair<JobId, SimTime>> finished;
  rm.set_job_finish_callback(
      [&](JobId job, SimTime when) { finished.emplace_back(job, when); });
  rm.Start();
  constexpr int kJobs = 16;
  for (JobId job = 0; job < kJobs; ++job) {
    rm.StartJob(job, FastLinearProfile(), 8, 0);
  }
  // Equipartition gives every job 2 of the 32 CPUs; the linear speedup
  // curve makes their progress bit-identical, so all 16 finish at the
  // exact same instant.
  sim.RunUntil(60 * kSecond);
  ASSERT_EQ(finished.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [job, when] : finished) {
    EXPECT_EQ(when, finished.front().second) << "job " << job;
    EXPECT_FALSE(rm.HasJob(job));
  }
  EXPECT_EQ(rm.running_jobs(), 0);
  EXPECT_EQ(rm.machine().FreeCpus(), 32);
  // The finished jobs' allocation integrals survive into the archive.
  const std::map<JobId, double> integrals = rm.alloc_integral_us();
  ASSERT_EQ(integrals.size(), static_cast<std::size_t>(kJobs));
  for (const auto& [job, integral] : integrals) {
    EXPECT_GT(integral, 0.0) << "job " << job;
  }
}

// --- NextVisibleBound ------------------------------------------------------
//
// The sharded cluster engine lets the controller run ahead to a node's
// published bound, so a bound above the node's next visible instant (a
// completion or a CanStartJob flip) would silently reorder the run. The
// property test below drives random node states event by event and checks
// every bound published since the last visible instant against it. A bound
// flagged exact (a settled job's completion tick) must also equal the
// completion it predicts; an unsettled job's bound is a strict lower bound.

enum class BoundPolicy { kEquipartition, kPdpa, kEqualEfficiency };

struct BoundCase {
  const char* name;
  BoundPolicy policy;
  // Whether the closed form may engage: the boundary-batch fast path with
  // a passive policy and no sinks.
  bool closed_form;
  bool capture = false;
  bool exact_ticks = false;
  SimDuration warmup = 0;
  SimDuration reconfig_freeze = 0;
  // Whether jobs can settle, so exact completion ticks must show up: not
  // when the baseline never completes. (A rigid job skips the baseline
  // override, but its analyzer still completes a baseline whenever its
  // clean iterations run at the baseline count.)
  bool settles = true;
  // Analyzer baseline length; long enough keeps every job in its baseline.
  int baseline_iterations = 2;
  bool all_rigid = false;
  // Speedup tables with fractional breakpoints.
  bool fractional = false;
};

std::unique_ptr<SchedulingPolicy> MakeBoundPolicy(BoundPolicy policy, int cpus) {
  switch (policy) {
    case BoundPolicy::kEquipartition:
      return std::make_unique<Equipartition>(std::min(4, cpus));
    case BoundPolicy::kPdpa:
      return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
    case BoundPolicy::kEqualEfficiency: {
      EqualEfficiency::Params params;
      params.fixed_ml = std::min(params.fixed_ml, cpus);
      return std::make_unique<EqualEfficiency>(params);
    }
  }
  return nullptr;
}

// A short run with a random, possibly non-monotone speedup curve, with
// integer or fractional breakpoints.
AppProfile RandomProfile(Rng& rng, int cpus, bool fractional) {
  std::vector<std::pair<double, double>> points{{1, 1.0}};
  double speedup = 1.0;
  for (double p = 2; p <= cpus;
       p += fractional ? rng.Uniform(0.1, 2.5) : rng.UniformInt(1, 3)) {
    speedup = std::max(0.5, speedup + rng.Uniform(-0.4, 1.0));
    points.emplace_back(p, speedup);
  }
  AppProfile profile;
  profile.name = "random";
  profile.speedup = std::make_shared<TableSpeedup>(points);
  profile.sequential_work_s = rng.Uniform(0.2, 12.0);
  profile.iterations = rng.UniformInt(1, 24);
  profile.default_request = cpus;
  profile.baseline_procs = rng.UniformInt(1, cpus);
  return profile;
}

struct BoundTally {
  long long visible = 0;      // visible instants checked
  long long closed_form = 0;  // bounds published past the next event
  long long lower = 0;        // of those, unsettled lower bounds
  long long exact = 0;        // exact closed-form bounds met by a completion
};

// One random node: up to six jobs started at random instants (some on the
// tick grid, some tied with pending events), advanced event by event.
void RunBoundTrial(const BoundCase& c, std::uint64_t seed, BoundTally* tally) {
  Rng rng(seed);
  const int cpus = rng.UniformInt(1, 16);
  ResourceManager::Params params;
  params.num_cpus = cpus;
  params.analyzer.noise_sigma = rng.UniformInt(0, 1) == 0 ? 0.0 : 0.05;
  params.app_costs.warmup = c.warmup;
  params.app_costs.reconfig_freeze = c.reconfig_freeze;
  params.analyzer.baseline_iterations = c.baseline_iterations;
  params.exact_ticks = c.exact_ticks;
  params.boundary_batch = true;
  std::ostringstream sink;
  EventLog log(&sink);
  Simulation sim(Simulation::Sinks{.event_log = c.capture ? &log : nullptr});
  ResourceManager rm(params, MakeBoundPolicy(c.policy, cpus), &sim, rng.Fork());
  bool visible = false;
  bool finished = false;
  bool admit = false;
  rm.set_job_finish_callback([&](JobId, SimTime) {
    visible = true;
    finished = true;
  });
  rm.set_state_change_callback([&](SimTime) {
    if (rm.CanStartJob() != admit) {
      admit = !admit;
      visible = true;
    }
  });
  rm.Start();
  admit = rm.CanStartJob();

  std::vector<SimTime> starts(static_cast<std::size_t>(rng.UniformInt(1, 6)));
  for (SimTime& start : starts) {
    start = rng.UniformInt(0, 1) == 0 ? rng.UniformInt(0, 400) * params.tick
                                      : SecondsToTime(rng.Uniform(0.0, 8.0));
  }
  std::sort(starts.begin(), starts.end());

  const auto next_event = [&] {
    return sim.events().empty() ? kHorizonNever : sim.events().NextTime();
  };
  SimTime max_bound = 0;  // highest bound published since the last visible instant
  SimTime closed = -1;    // latest exact closed-form bound in that window
  const auto publish = [&] {
    bool exact = false;
    const SimTime bound = rm.NextVisibleBound(&exact);
    const SimTime next = next_event();
    EXPECT_GE(bound, next) << c.name << " seed " << seed;
    if (!c.closed_form) {
      EXPECT_EQ(bound, next) << c.name << " seed " << seed << ": fallback must be the next event";
    }
    if (bound > next) {
      ++tally->closed_form;
      if (exact) {
        closed = bound;
      } else {
        ++tally->lower;
      }
    } else {
      EXPECT_FALSE(exact) << c.name << " seed " << seed;
    }
    max_bound = std::max(max_bound, bound);
  };

  std::size_t next_job = 0;
  publish();
  for (int steps = 0; steps < 20000; ++steps) {
    const SimTime event_t = next_event();
    if (next_job < starts.size() && starts[next_job] < event_t) {
      const SimTime at = std::max(starts[next_job], sim.now());
      sim.AdvanceTo(at);
      if (rm.CanStartJob()) {
        rm.StartJob(static_cast<JobId>(next_job), RandomProfile(rng, cpus, c.fractional),
                    rng.UniformInt(1, cpus + 2), at, c.all_rigid || rng.UniformInt(0, 5) == 0);
      }
      admit = rm.CanStartJob();  // the cluster controller re-syncs here too
      ++next_job;
      max_bound = 0;
      closed = -1;
      publish();
      continue;
    }
    if (event_t == kHorizonNever) {
      break;
    }
    sim.Step();
    while (next_event() == event_t) {
      sim.Step();  // the engine blocks a node only after its whole instant
    }
    if (visible) {
      ++tally->visible;
      EXPECT_LE(max_bound, event_t) << c.name << " seed " << seed
                                    << ": bound passed a visible instant";
      if (closed >= 0 && finished) {
        ++tally->exact;
        EXPECT_EQ(closed, event_t) << c.name << " seed " << seed
                                   << ": exact closed form missed the completion tick";
      }
      visible = false;
      finished = false;
      max_bound = 0;
      closed = -1;
    }
    publish();
  }
  EXPECT_EQ(rm.running_jobs(), 0) << c.name << " seed " << seed << ": trial did not drain";
}

TEST(ResourceManagerTest, NextVisibleBoundNeverPassesTheNextVisibleInstant) {
  const SimDuration warmup = 300 * kMillisecond;
  const SimDuration freeze = 200 * kMillisecond;
  const BoundCase cases[] = {
      {"equip", BoundPolicy::kEquipartition, true},
      {"equip-warmup", BoundPolicy::kEquipartition, true, false, false, warmup},
      {"equip-freeze", BoundPolicy::kEquipartition, true, false, false, 0, freeze},
      {"equip-warmup-freeze", BoundPolicy::kEquipartition, true, false, false, warmup, freeze},
      {"equip-baseline", BoundPolicy::kEquipartition, true, false, false, warmup, 0, false, 1000},
      {"equip-rigid", BoundPolicy::kEquipartition, true, false, false, 0, 0, true, 2, true},
      {"equip-fractional", BoundPolicy::kEquipartition, true, false, false, warmup, freeze, true,
       2, false, true},
      {"equip-capture", BoundPolicy::kEquipartition, false, true},
      {"equip-exact-ticks", BoundPolicy::kEquipartition, false, false, true},
      {"pdpa", BoundPolicy::kPdpa, false},
      {"equal-eff", BoundPolicy::kEqualEfficiency, false},
  };
  for (const BoundCase& c : cases) {
    BoundTally tally;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      RunBoundTrial(c, seed, &tally);
    }
    EXPECT_GT(tally.visible, 24) << c.name;
    if (c.closed_form) {
      // Both closed forms must actually engage: lower bounds for unsettled
      // jobs, and exact completion ticks wherever jobs settle.
      EXPECT_GT(tally.lower, 0) << c.name;
      if (c.settles) {
        EXPECT_GT(tally.exact, 0) << c.name;
      } else {
        EXPECT_EQ(tally.exact, 0) << c.name;
      }
    } else {
      EXPECT_EQ(tally.closed_form, 0) << c.name;
    }
  }
}

// The RM resolves the analyzer counters once, for every job it starts; a
// run that never starts a job must not list them (its counter dump is part
// of the recorded output).
// Slot residency: a job placed in a slot whose binding, application and
// analyzer were reset in place (and whose settled-segment cache still holds
// the previous tenant's ticks) runs exactly as it does in a resource manager
// that builds everything fresh for it.
TEST(ResourceManagerTest, ReusedSlotMatchesFreshConstruction) {
  constexpr std::uint64_t kSeed = 77;
  constexpr int kJobs = 24;
  Rng rng(kSeed);
  const int cpus = 8;
  std::vector<AppProfile> profiles;
  for (int k = 0; k < 3; ++k) {
    profiles.push_back(RandomProfile(rng, cpus, k == 1));
  }
  struct Job {
    const AppProfile* profile;
    int request;
    bool rigid;
  };
  std::vector<Job> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(Job{&profiles[static_cast<std::size_t>(rng.UniformInt(0, 2))],
                       rng.UniformInt(1, cpus), rng.UniformInt(0, 4) == 0});
  }
  for (const bool batch : {false, true}) {
    ResourceManager::Params params;
    params.num_cpus = cpus;
    params.boundary_batch = batch;
    params.app_costs.reconfig_freeze = 30 * kMillisecond;
    params.app_costs.warmup = 100 * kMillisecond;

    // One job at a time through one resource manager: every job lands in
    // slot 0.
    Simulation sim;
    ResourceManager rm(params, std::make_unique<Equipartition>(4), &sim, Rng(kSeed));
    std::vector<SimTime> start(kJobs);
    std::vector<SimTime> finish(kJobs, -1);
    rm.set_job_finish_callback(
        [&](JobId job, SimTime t) { finish[static_cast<std::size_t>(job)] = t; });
    rm.Start();
    for (int i = 0; i < kJobs; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      start[static_cast<std::size_t>(i)] = sim.now();
      rm.StartJob(i, *job.profile, job.request, sim.now(), job.rigid);
      while (rm.running_jobs() > 0) {
        ASSERT_FALSE(sim.events().empty());
        sim.Step();
      }
    }
    const std::map<JobId, double> integrals = rm.alloc_integral_us();

    // Reference: each job alone in a fresh resource manager, started at the
    // same instant with the random stream the shared one handed that job.
    long long reports = 0;
    long long perf_reports = 0;
    for (int i = 0; i < kJobs; ++i) {
      const Job& job = jobs[static_cast<std::size_t>(i)];
      const SimTime at = start[static_cast<std::size_t>(i)];
      Simulation solo_sim;
      solo_sim.AdvanceTo(at);
      Rng solo_rng(kSeed);
      for (int k = 0; k < i; ++k) {
        solo_rng.NextU64();  // the forks of the jobs before this one
      }
      ResourceManager solo(params, std::make_unique<Equipartition>(4), &solo_sim, solo_rng);
      SimTime solo_finish = -1;
      solo.set_job_finish_callback([&](JobId, SimTime t) { solo_finish = t; });
      solo.Start();
      solo.StartJob(i, *job.profile, job.request, at, job.rigid);
      while (solo.running_jobs() > 0) {
        ASSERT_FALSE(solo_sim.events().empty());
        solo_sim.Step();
      }
      EXPECT_EQ(solo_finish, finish[static_cast<std::size_t>(i)]) << "batch " << batch << " job " << i;
      EXPECT_EQ(solo.alloc_integral_us().at(i), integrals.at(i)) << "batch " << batch << " job " << i;
      reports += solo_sim.registry().counter("analyzer.reports")->value();
      perf_reports += solo_sim.registry().counter("rm.perf_reports")->value();
    }
    EXPECT_EQ(sim.registry().counter("analyzer.reports")->value(), reports) << "batch " << batch;
    EXPECT_EQ(sim.registry().counter("rm.perf_reports")->value(), perf_reports)
        << "batch " << batch;
    EXPECT_GT(reports, 0);
  }
}

TEST(ResourceManagerTest, AnalyzerCountersAppearWithTheFirstJob) {
  const auto has_analyzer_counters = [](const Registry& registry) {
    for (const CounterSnapshot& c : registry.Snapshot().counters) {
      if (c.name.rfind("analyzer.", 0) == 0) {
        return true;
      }
    }
    return false;
  };
  Simulation sim;
  Registry& registry = sim.registry();
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  rm.Start();
  sim.RunUntil(kSecond);
  EXPECT_FALSE(has_analyzer_counters(registry));
  rm.StartJob(0, FastLinearProfile(), 8, sim.now());
  rm.StartJob(1, FastLinearProfile(), 8, sim.now());
  sim.RunUntil(120 * kSecond);
  EXPECT_EQ(rm.running_jobs(), 0);
  EXPECT_TRUE(has_analyzer_counters(registry));
  EXPECT_EQ(registry.counter("analyzer.baselines_done")->value(), 2);
  EXPECT_GT(registry.counter("analyzer.reports")->value(), 0);
}

// Two bare stacks in one process: each simulation's registry holds only the
// work of its own run, so the second run does not add to the first's counts.
TEST(ResourceManagerTest, BareSimulationsSeeOnlyTheirOwnCounters) {
  Simulation first;
  Simulation second;
  for (Simulation* sim : {&first, &second}) {
    ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), sim, Rng(1));
    rm.Start();
    rm.StartJob(0, FastLinearProfile(), 8, sim->now());
    sim->RunUntil(60 * kSecond);
    EXPECT_EQ(rm.running_jobs(), 0);
    rm.Stop();
  }
  for (const char* name : {"analyzer.reports", "sim.events_dispatched"}) {
    EXPECT_GT(first.registry().counter(name)->value(), 0) << name;
    EXPECT_EQ(second.registry().counter(name)->value(), first.registry().counter(name)->value())
        << name;
  }
}

TEST(ResourceManagerDeathTest, DuplicateJobIdAborts) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  rm.Start();
  rm.StartJob(0, FastLinearProfile(), 8, 0);
  EXPECT_DEATH(rm.StartJob(0, FastLinearProfile(), 8, 0), "");
}

#ifdef PDPA_AUDIT
// Admission passes the job-table size as the running count, so a probe
// from inside a completion pass, where freed slots linger, fails the audit.
TEST(ResourceManagerDeathTest, AdmissionProbeInsideCompletionPassFailsTheAudit) {
  Simulation sim;
  ResourceManager rm(FastParams(), std::make_unique<Equipartition>(4), &sim, Rng(1));
  rm.set_job_finish_callback([&](JobId, SimTime) { (void)rm.CanStartJob(); });
  rm.Start();
  rm.StartJob(0, FastLinearProfile(), 8, 0);
  EXPECT_DEATH(sim.RunUntil(60 * kSecond), "admission probe inside a completion pass");
}
#endif

}  // namespace
}  // namespace pdpa
