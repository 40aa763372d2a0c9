#include "src/sim/simulation.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/event_log.h"

namespace pdpa {

Simulation::Simulation() : Simulation(Sinks{}) {}

Simulation::Simulation(const Sinks& sinks)
    : sinks_(sinks),
      events_dispatched_(registry_.counter("sim.events_dispatched")),
      periodic_fires_(registry_.counter("sim.periodic_fires")) {
  events_.set_profiler(sinks.profiler);
  if (sinks.event_log != nullptr) {
    sinks.event_log->set_profiler(sinks.profiler);
  }
}

Simulation::~Simulation() { ClearLogSimTime(); }

int Simulation::SchedulePeriodic(SimTime start, SimDuration period,
                                 std::function<void(SimTime)> callback) {
  PDPA_CHECK_GT(period, 0);
  const int handle = static_cast<int>(periodic_.size());
  periodic_.push_back(PeriodicTask{period, std::move(callback), true});
  periodic_.back().pending =
      events_.Schedule(start, [this, handle, start] { FirePeriodic(handle, start); });
  return handle;
}

void Simulation::CancelPeriodic(int handle) {
  PDPA_CHECK_GE(handle, 0);
  PDPA_CHECK_LT(handle, static_cast<int>(periodic_.size()));
  PeriodicTask& task = periodic_[static_cast<std::size_t>(handle)];
  task.active = false;
  if (task.pending != 0) {
    events_.Cancel(task.pending);
    task.pending = 0;
  }
}

void Simulation::FirePeriodic(int handle, SimTime when) {
  PeriodicTask& task = periodic_[static_cast<std::size_t>(handle)];
  task.pending = 0;
  if (!task.active) {
    return;
  }
  periodic_fires_->Increment();
  task.callback(when);
  if (task.active) {
    const SimTime next = when + task.period;
    task.pending = events_.Schedule(next, [this, handle, next] { FirePeriodic(handle, next); });
  }
}

void Simulation::Step() {
  PDPA_CHECK(!events_.empty()) << "Step() on an empty event queue";
  now_ = events_.NextTime();
  SetLogSimTimeUs(now_);
  events_dispatched_->Increment();
  events_.RunNext();
}

void Simulation::AdvanceTo(SimTime t) {
  PDPA_CHECK(events_.empty() || events_.NextTime() >= t)
      << "AdvanceTo() would skip pending events";
  PDPA_CHECK_GE(t, now_);
  now_ = t;
  SetLogSimTimeUs(now_);
}

void Simulation::Restore(SimTime now) {
  PDPA_CHECK(events_.empty()) << "Restore() on a simulation with pending events";
  PDPA_CHECK_GE(now, now_);
  now_ = now;
  SetLogSimTimeUs(now_);
}

SimTime Simulation::RunUntil(SimTime until) {
  while (!events_.empty()) {
    const SimTime next = events_.NextTime();
    if (next > until) {
      break;
    }
    // Advance the clock before dispatching so callbacks observing now() (and
    // scheduling relative work) see the event's own time.
    now_ = next;
    SetLogSimTimeUs(now_);
    events_dispatched_->Increment();
    events_.RunNext();
  }
  if (now_ < until && events_.empty()) {
    now_ = until;
  }
  return now_;
}

}  // namespace pdpa
