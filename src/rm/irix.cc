#include "src/rm/irix.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

IrixTimeShare::IrixTimeShare(Params params, Rng rng) : params_(params), rng_(rng) {
  PDPA_CHECK_GE(params.fixed_ml, 1);
  PDPA_CHECK_GE(params.migration_cost, 0.0);
  PDPA_CHECK_LE(params.migration_cost, 1.0);
}

void IrixTimeShare::BindInstruments(Registry& registry) {
  dispatch_ticks_ = registry.counter("policy.irix.dispatch_ticks");
}

AllocationPlan IrixTimeShare::OnJobStart(const PolicyContext& ctx, JobId job) {
  RestoreCreationOrder();
  for (const PolicyJobInfo& info : ctx.jobs) {
    if (info.id == job) {
      // The SGI-MP library spawns OMP_NUM_THREADS kernel threads up front.
      for (int i = 0; i < info.request; ++i) {
        AddThread(job);
      }
      break;
    }
  }
  return AllocationPlan{};
}

AllocationPlan IrixTimeShare::OnJobFinish(const PolicyContext& ctx, JobId job) {
  (void)ctx;
  RestoreCreationOrder();
  std::erase_if(threads_, [job](const Thread& t) { return t.job == job; });
  return AllocationPlan{};
}

bool IrixTimeShare::ShouldAdmit(int running_jobs, int free_cpus) const {
  (void)free_cpus;
  return running_jobs < params_.fixed_ml;
}

int IrixTimeShare::ThreadCountOf(JobId job) const {
  int count = 0;
  for (const Thread& t : threads_) {
    if (t.job == job) {
      ++count;
    }
  }
  return count;
}

void IrixTimeShare::AdjustThreadCounts(const PolicyContext& ctx, int ncpus) {
  if (ctx.jobs.empty()) {
    return;
  }
  // Fair share per running application (the SGI-MP heuristic reacts to the
  // load average; the effect is a slow drift of each team toward ncpus/ml).
  const int fair = std::max(1, ncpus / static_cast<int>(ctx.jobs.size()));
  for (const PolicyJobInfo& info : ctx.jobs) {
    const int have = ThreadCountOf(info.id);
    const int floor_threads =
        std::max(1, static_cast<int>(info.request * params_.omp_min_fraction));
    const int want = std::min(info.request, std::max(fair, floor_threads));
    if (have > want) {
      // Retire the hungriest surplus threads (they are spinning anyway).
      int to_remove = std::min(params_.omp_adjust_step, have - want);
      for (auto it = threads_.rbegin(); it != threads_.rend() && to_remove > 0;) {
        if (it->job == info.id) {
          it = decltype(it)(threads_.erase(std::next(it).base()));
          --to_remove;
        } else {
          ++it;
        }
      }
    } else if (have < want) {
      for (int i = 0; i < std::min(params_.omp_adjust_step, want - have); ++i) {
        AddThread(info.id);
      }
    }
  }
}

void IrixTimeShare::RestoreCreationOrder() {
  std::sort(threads_.begin(), threads_.end(),
            [](const Thread& a, const Thread& b) { return a.seq < b.seq; });
  next_seq_ = 0;
  for (Thread& t : threads_) {
    t.seq = next_seq_++;
  }
}

void IrixTimeShare::TimeShareTick(Machine& machine, const PolicyContext& ctx, SimDuration dt,
                                  std::vector<CpuHandoff>* handoffs,
                                  std::vector<TimeShare>* shares) {
  dispatch_ticks_->Increment();
  shares->resize(ctx.jobs.size());  // every entry is set below
  const int ncpus = machine.num_cpus();
  clock_ += dt;
  if (params_.omp_dynamic && clock_ >= next_adjust_) {
    RestoreCreationOrder();
    AdjustThreadCounts(ctx, ncpus);
    next_adjust_ = clock_ + params_.omp_adjust_period;
  }
  // With no threads at all, every CPU goes idle below.
  const int nthreads = static_cast<int>(threads_.size());

  // Dispatch order: lowest effective vruntime first, where a thread that ran
  // last tick gets an affinity/timeslice bonus; ties go to the older thread.
  // This is a coarse model of IRIX's priority aging with affinity. threads_
  // keeps last tick's order, which barely differs from this one's, so an
  // insertion sort by (key, seq) restores it in near-linear time.
  const auto before = [](const Thread& a, const Thread& b) {
    return a.key < b.key || (a.key == b.key && a.seq < b.seq);
  };
  Thread* const threads = threads_.data();
  for (int i = 1; i < nthreads; ++i) {
    if (!before(threads[i], threads[i - 1])) {
      continue;
    }
    const Thread moved = threads[i];
    int j = i;
    for (; j > 0 && before(moved, threads[j - 1]); --j) {
      threads[j] = threads[j - 1];
    }
    threads[j] = moved;
  }

  const int to_run = std::min(ncpus, nthreads);
  const std::size_t njobs = ctx.jobs.size();
  cpu_state_.assign(static_cast<std::size_t>(ncpus), 0);
  running_count_.assign(njobs, 0);
  migrations_.assign(njobs, 0);
  int* const cpu_state = cpu_state_.data();
  int* const running_count = running_count_.data();
  int* const migrations = migrations_.data();
  constexpr int kReclaimed = 1;  // a selected thread last ran here
  constexpr int kAssigned = 2;   // dispatched this tick
  // Position of a thread's job in ctx.jobs (-1 if absent), cached on the
  // thread: the job set rarely changes between ticks.
  const auto position_of = [&ctx, njobs](Thread& t) {
    if (static_cast<std::size_t>(t.pos) >= njobs ||
        ctx.jobs[static_cast<std::size_t>(t.pos)].id != t.job) {
      t.pos = -1;
      for (std::size_t k = 0; k < njobs; ++k) {
        if (ctx.jobs[k].id == t.job) {
          t.pos = static_cast<int>(k);
          break;
        }
      }
    }
    return t.pos;
  };

  // Pass 1: selected threads reclaim their previous CPU when possible.
  for (int i = 0; i < to_run; ++i) {
    const int last = threads[i].last_cpu;
    if (last >= 0 && last < ncpus) {
      cpu_state[last] = kReclaimed;
    }
  }
  // Pass 2: place every selected thread; the ones whose CPU was claimed by
  // someone else (or who never ran) take the lowest free CPU and migrate.
  // Each reclaimed CPU goes to the first selected thread that last ran on
  // it, so the others need at most ncpus - |reclaimed| free CPUs: the free
  // search cannot run dry. It only ever marks CPUs assigned, so the lowest
  // free CPU only moves up and is tracked by a cursor.
  int free_cursor = 0;
  for (int i = 0; i < to_run; ++i) {
    Thread& t = threads[i];
    const int pos = position_of(t);
    int cpu = t.last_cpu;
    if (!(cpu >= 0 && cpu < ncpus && cpu_state[cpu] == kReclaimed)) {
      while (free_cursor < ncpus && cpu_state[free_cursor] != 0) {
        ++free_cursor;
      }
      PDPA_CHECK_LT(free_cursor, ncpus);
      cpu = free_cursor;
      if (t.last_cpu >= 0 && cpu != t.last_cpu) {
        if (pos >= 0) {
          ++migrations[pos];
        }
        ++total_thread_migrations_;
      }
    }
    cpu_state[cpu] = kAssigned;
    const JobId prev_owner = machine.OwnerOf(cpu);
    if (prev_owner != t.job) {
      machine.SetOwner(cpu, t.job);
      if (handoffs != nullptr) {
        handoffs->push_back(CpuHandoff{cpu, prev_owner, t.job});
      }
    }
    t.last_cpu = cpu;
    if (pos >= 0) {
      ++running_count[pos];
    }
  }
  // Pass 3: work imbalance jitter desynchronizes dispatch epochs and
  // sustains the migration churn observed on the real machine. Exactly one
  // draw per dispatched thread, in dispatch order, from a local copy of the
  // RNG that stays in registers. Threads beyond the CPU count wait this tick.
  Rng rng = rng_;
  const double dt_s = TimeToSeconds(dt);
  const double jitter = params_.vruntime_jitter;
  const double bonus_s = TimeToSeconds(params_.affinity_bonus);
  for (int i = 0; i < to_run; ++i) {
    threads[i].vruntime_s += dt_s * (1.0 + rng.Uniform(-jitter, jitter));
    threads[i].key = threads[i].vruntime_s - bonus_s;
  }
  rng_ = rng;
  for (int i = to_run; i < nthreads; ++i) {
    threads[i].key = threads[i].vruntime_s;
  }
  // Idle CPUs (fewer threads than CPUs) release their owner. Each of the
  // to_run assigned CPUs now belongs to a job, so when exactly ncpus - to_run
  // CPUs are free, no unassigned CPU has an owner to release.
  if (machine.FreeCpus() != ncpus - to_run) {
    for (int c = 0; c < ncpus; ++c) {
      if (cpu_state[c] != kAssigned && machine.OwnerOf(c) != kIdleJob) {
        const JobId prev_owner = machine.OwnerOf(c);
        machine.SetOwner(c, kIdleJob);
        if (handoffs != nullptr) {
          handoffs->push_back(CpuHandoff{c, prev_owner, kIdleJob});
        }
      }
    }
  }

  const double overcommit =
      static_cast<double>(nthreads) / static_cast<double>(ncpus);
  const double contention =
      1.0 / (1.0 + params_.overcommit_penalty * std::max(0.0, overcommit - 1.0));
  for (std::size_t k = 0; k < njobs; ++k) {
    TimeShare& share = (*shares)[k];
    const int running = running_count[k];
    share.effective_procs = static_cast<double>(running);
    double overhead = contention;
    if (running > 0) {
      overhead *= std::max(0.1, 1.0 - params_.migration_cost * static_cast<double>(migrations[k]) /
                                          static_cast<double>(running));
    }
    share.overhead = overhead;
  }
}

}  // namespace pdpa
