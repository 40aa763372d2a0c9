#include "src/obs/counters.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace pdpa {

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  PDPA_CHECK(!upper_bounds_.empty()) << "histogram needs at least one bucket bound";
  for (std::size_t i = 1; i < upper_bounds_.size(); ++i) {
    PDPA_CHECK(upper_bounds_[i - 1] < upper_bounds_[i])
        << "histogram bounds must be strictly increasing";
  }
  counts_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::Observe(double sample) {
  std::size_t bucket = upper_bounds_.size();  // overflow bucket
  for (std::size_t i = 0; i < upper_bounds_.size(); ++i) {
    if (sample <= upper_bounds_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++count_;
  sum_ += sample;
}

void Histogram::Reset() {
  counts_.assign(counts_.size(), 0);
  count_ = 0;
  sum_ = 0.0;
}

void Histogram::Restore(const std::vector<long long>& bucket_counts, long long count,
                        double sum) {
  PDPA_CHECK_EQ(bucket_counts.size(), counts_.size())
      << "histogram restore with mismatched bucket layout";
  counts_ = bucket_counts;
  count_ = count;
  sum_ = sum;
}

Counter* Registry::counter(const std::string& name) {
  const MutexLock lock(&mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* Registry::gauge(const std::string& name) {
  const MutexLock lock(&mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  const MutexLock lock(&mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(std::move(upper_bounds))).first;
  }
  return it->second.get();
}

RegistrySnapshot Registry::Snapshot() const {
  const MutexLock lock(&mutex_);
  RegistrySnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back(GaugeSnapshot{name, gauge->value(), gauge->has_value()});
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back(HistogramSnapshot{name, histogram->upper_bounds(),
                                                    histogram->bucket_counts(),
                                                    histogram->count(), histogram->sum()});
  }
  return snapshot;
}

void Registry::ResetAll() {
  const MutexLock lock(&mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

void Registry::Restore(const RegistrySnapshot& snapshot) {
  ResetAll();
  for (const CounterSnapshot& c : snapshot.counters) {
    counter(c.name)->Increment(c.value);
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    if (g.has_value) {
      gauge(g.name)->Set(g.value);
    } else {
      gauge(g.name)->Reset();
    }
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    histogram(h.name, h.upper_bounds)->Restore(h.bucket_counts, h.count, h.sum);
  }
}

RegistrySnapshot MergeRegistrySnapshots(const std::vector<const RegistrySnapshot*>& parts) {
  RegistrySnapshot merged;
  std::map<std::string, long long> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  for (const RegistrySnapshot* part : parts) {
    for (const CounterSnapshot& c : part->counters) {
      counters[c.name] += c.value;
    }
    for (const GaugeSnapshot& g : part->gauges) {
      auto [it, inserted] = gauges.emplace(g.name, g);
      if (!inserted && g.has_value && (!it->second.has_value || g.value > it->second.value)) {
        it->second = g;
      }
    }
    for (const HistogramSnapshot& h : part->histograms) {
      auto [it, inserted] = histograms.emplace(h.name, h);
      if (inserted) {
        continue;
      }
      HistogramSnapshot& acc = it->second;
      PDPA_CHECK(acc.upper_bounds == h.upper_bounds)
          << "histogram " << h.name << " bounds differ across merged snapshots";
      for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
        acc.bucket_counts[i] += h.bucket_counts[i];
      }
      acc.count += h.count;
      acc.sum += h.sum;
    }
  }
  for (auto& [name, value] : counters) {
    merged.counters.push_back(CounterSnapshot{name, value});
  }
  for (auto& [name, gauge] : gauges) {
    merged.gauges.push_back(gauge);
  }
  for (auto& [name, histogram] : histograms) {
    merged.histograms.push_back(std::move(histogram));
  }
  return merged;
}

std::string RegistrySnapshot::ToString() const {
  std::string out;
  for (const CounterSnapshot& c : counters) {
    out += StrFormat("%-40s %lld\n", c.name.c_str(), c.value);
  }
  for (const GaugeSnapshot& g : gauges) {
    out += StrFormat("%-40s %g\n", g.name.c_str(), g.value);
  }
  for (const HistogramSnapshot& h : histograms) {
    out += StrFormat("%-40s count=%lld sum=%g\n", h.name.c_str(), h.count, h.sum);
    for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
      out += StrFormat("  le %-10g %lld\n", h.upper_bounds[i], h.bucket_counts[i]);
    }
    out += StrFormat("  le +inf     %lld\n", h.bucket_counts.back());
  }
  return out;
}

}  // namespace pdpa
