#include "src/runtime/nth_lib.h"

#include <utility>

#include "src/common/logging.h"

namespace pdpa {

NthLibBinding::NthLibBinding(std::unique_ptr<Application> app, SelfAnalyzerParams analyzer_params,
                             Rng rng, AnalyzerCounters counters)
    : app_(std::move(app)) {
  PDPA_CHECK(app_ != nullptr);
  analyzer_ = std::make_unique<SelfAnalyzer>(app_.get(), analyzer_params, rng, counters);
  app_->set_observer(analyzer_.get());
}

void NthLibBinding::Reset(JobId id, const AppProfile* profile, Rng rng) {
  app_->Reset(id, profile);
  analyzer_->Reset(rng);
}

void NthLibBinding::StartJob(SimTime now) {
  analyzer_->OnJobStart(now);
  app_->Start(now);
}

void NthLibBinding::StartJobWithoutAnalyzer(SimTime now) { app_->Start(now); }

void NthLibBinding::SetProcessors(int procs, SimTime now) { app_->SetAllocation(procs, now); }

}  // namespace pdpa
