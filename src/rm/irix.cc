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
  for (const PolicyJobInfo& info : ctx.jobs) {
    if (info.id == job) {
      // The SGI-MP library spawns OMP_NUM_THREADS kernel threads up front.
      for (int i = 0; i < info.request; ++i) {
        threads_.push_back(Thread{job, -1, false, 0.0});
      }
      break;
    }
  }
  ResetDispatchOrder();
  return AllocationPlan{};
}

AllocationPlan IrixTimeShare::OnJobFinish(const PolicyContext& ctx, JobId job) {
  (void)ctx;
  std::erase_if(threads_, [job](const Thread& t) { return t.job == job; });
  ResetDispatchOrder();
  return AllocationPlan{};
}

bool IrixTimeShare::ShouldAdmit(const PolicyContext& ctx) const {
  return static_cast<int>(ctx.jobs.size()) < params_.fixed_ml;
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
        threads_.push_back(Thread{info.id, -1, false, 0.0});
      }
    }
  }
}

void IrixTimeShare::ResetDispatchOrder() {
  dispatch_order_.resize(threads_.size());
  for (std::size_t i = 0; i < dispatch_order_.size(); ++i) {
    dispatch_order_[i].thread = static_cast<int>(i);
  }
}

void IrixTimeShare::TimeShareTick(Machine& machine, const PolicyContext& ctx, SimDuration dt,
                                  std::vector<CpuHandoff>* handoffs,
                                  std::vector<TimeShare>* shares) {
  dispatch_ticks_->Increment();
  shares->assign(ctx.jobs.size(), TimeShare{0.0, 1.0});
  const int ncpus = machine.num_cpus();
  clock_ += dt;
  if (params_.omp_dynamic && clock_ >= next_adjust_) {
    AdjustThreadCounts(ctx, ncpus);
    ResetDispatchOrder();
    next_adjust_ = clock_ + params_.omp_adjust_period;
  }
  const int nthreads = static_cast<int>(threads_.size());
  if (nthreads == 0) {
    // No runnable threads: every CPU goes idle.
    for (int c = 0; c < ncpus; ++c) {
      const JobId prev_owner = machine.OwnerOf(c);
      if (prev_owner != kIdleJob) {
        machine.SetOwner(c, kIdleJob);
        if (handoffs != nullptr) {
          handoffs->push_back(CpuHandoff{c, prev_owner, kIdleJob});
        }
      }
    }
    return;
  }

  // Dispatch order: lowest effective vruntime first, where a thread that ran
  // last tick gets an affinity/timeslice bonus; ties go to the lower thread
  // index. This is a coarse model of IRIX's priority aging with affinity.
  const double bonus_s = TimeToSeconds(params_.affinity_bonus);
  PDPA_CHECK_EQ(dispatch_order_.size(), threads_.size());
  for (DispatchSlot& slot : dispatch_order_) {
    const Thread& t = threads_[static_cast<std::size_t>(slot.thread)];
    slot.key = t.vruntime_s - (t.running ? bonus_s : 0.0);
  }
  for (std::size_t i = 1; i < dispatch_order_.size(); ++i) {
    const DispatchSlot slot = dispatch_order_[i];
    std::size_t j = i;
    for (; j > 0; --j) {
      const DispatchSlot& prev = dispatch_order_[j - 1];
      if (!(slot.key < prev.key || (slot.key == prev.key && slot.thread < prev.thread))) {
        break;
      }
      dispatch_order_[j] = prev;
    }
    dispatch_order_[j] = slot;
  }

  // The thread at dispatch position i.
  const auto thread_at = [this](int i) -> Thread& {
    return threads_[static_cast<std::size_t>(dispatch_order_[static_cast<std::size_t>(i)].thread)];
  };
  const int to_run = std::min(ncpus, nthreads);
  cpu_taken_.assign(static_cast<std::size_t>(ncpus), 0);
  cpu_assigned_.assign(static_cast<std::size_t>(ncpus), 0);
  running_count_.assign(ctx.jobs.size(), 0);
  migrations_.assign(ctx.jobs.size(), 0);
  // Position of a thread's job in ctx.jobs (-1 if absent); threads of one
  // job mostly sit together, so the last hit is checked first.
  std::size_t last_pos = 0;
  const auto position_of = [&](JobId job) -> int {
    if (last_pos < ctx.jobs.size() && ctx.jobs[last_pos].id == job) {
      return static_cast<int>(last_pos);
    }
    for (std::size_t k = 0; k < ctx.jobs.size(); ++k) {
      if (ctx.jobs[k].id == job) {
        last_pos = k;
        return static_cast<int>(k);
      }
    }
    return -1;
  };

  // Pass 1: selected threads reclaim their previous CPU when possible.
  for (int i = 0; i < to_run; ++i) {
    const Thread& t = thread_at(i);
    if (t.last_cpu >= 0 && t.last_cpu < ncpus) {
      cpu_taken_[static_cast<std::size_t>(t.last_cpu)] = 1;
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
    Thread& t = thread_at(i);
    const int pos = position_of(t.job);
    int cpu = t.last_cpu;
    if (!(t.last_cpu >= 0 && t.last_cpu < ncpus &&
          cpu_assigned_[static_cast<std::size_t>(t.last_cpu)] == 0 &&
          cpu_taken_[static_cast<std::size_t>(t.last_cpu)] != 0)) {
      while (free_cursor < ncpus && (cpu_taken_[static_cast<std::size_t>(free_cursor)] != 0 ||
                                     cpu_assigned_[static_cast<std::size_t>(free_cursor)] != 0)) {
        ++free_cursor;
      }
      PDPA_CHECK_LT(free_cursor, ncpus);
      cpu = free_cursor;
      if (t.last_cpu >= 0 && cpu != t.last_cpu) {
        if (pos >= 0) {
          ++migrations_[static_cast<std::size_t>(pos)];
        }
        ++total_thread_migrations_;
      }
    }
    cpu_assigned_[static_cast<std::size_t>(cpu)] = 1;
    const JobId prev_owner = machine.OwnerOf(cpu);
    if (prev_owner != t.job) {
      machine.SetOwner(cpu, t.job);
      if (handoffs != nullptr) {
        handoffs->push_back(CpuHandoff{cpu, prev_owner, t.job});
      }
    }
    t.last_cpu = cpu;
    t.running = true;
    // Work imbalance jitter desynchronizes dispatch epochs and sustains the
    // migration churn observed on the real machine.
    t.vruntime_s += TimeToSeconds(dt) * (1.0 + rng_.Uniform(-params_.vruntime_jitter,
                                                            params_.vruntime_jitter));
    if (pos >= 0) {
      ++running_count_[static_cast<std::size_t>(pos)];
    }
  }
  // Threads beyond the CPU count wait this tick.
  for (int i = to_run; i < nthreads; ++i) {
    thread_at(i).running = false;
  }
  // Idle CPUs (fewer threads than CPUs) release their owner. Each of the
  // to_run assigned CPUs now belongs to a job, so when exactly ncpus - to_run
  // CPUs are free, no unassigned CPU has an owner to release.
  if (machine.FreeCpus() != ncpus - to_run) {
    for (int c = 0; c < ncpus; ++c) {
      if (cpu_assigned_[static_cast<std::size_t>(c)] == 0 && machine.OwnerOf(c) != kIdleJob) {
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
  for (std::size_t k = 0; k < ctx.jobs.size(); ++k) {
    TimeShare& share = (*shares)[k];
    const int running = running_count_[k];
    share.effective_procs = static_cast<double>(running);
    double overhead = contention;
    if (running > 0) {
      overhead *= std::max(0.1, 1.0 - params_.migration_cost * static_cast<double>(migrations_[k]) /
                                          static_cast<double>(running));
    }
    share.overhead = overhead;
  }
}

}  // namespace pdpa
