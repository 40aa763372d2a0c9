// Observability registry: named monotonic counters, gauges and fixed-bucket
// histograms.
//
// One simulation is single-threaded by design, so instruments are plain
// (non-atomic) slots: a hot-path increment is one load/add/store. Call sites
// resolve the named instrument once (the registry hands out stable pointers)
// and then only touch the slot. Snapshot() and ResetAll() give tests and the
// --counters CLI flag a deterministic, name-sorted view of everything the
// stack recorded.
//
// Registries are per-run: each Simulation owns one, and every layer of its
// stack (sim, RM, QS, policies, SelfAnalyzer) resolves its instruments from
// it, so the sweep engine can run N simulations concurrently with fully
// isolated counters. There is no process-wide registry. Registration and
// Snapshot are mutex-guarded (cheap, off the hot path); instrument *values*
// are unsynchronized and must only be touched by the run that owns the
// registry.
//
// Naming convention: lowercase dotted paths grouped by layer, e.g.
// "rm.reallocations", "pdpa.transitions.to_stable", "analyzer.reports".
#ifndef SRC_OBS_COUNTERS_H_
#define SRC_OBS_COUNTERS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace pdpa {

// Monotonically increasing count (events, decisions, errors).
class Counter {
 public:
  void Increment(long long delta = 1) { value_ += delta; }
  long long value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  long long value_ = 0;
};

// Last-write-wins instantaneous value (free CPUs, queue depth).
class Gauge {
 public:
  void Set(double value) {
    value_ = value;
    has_value_ = true;
  }
  double value() const { return value_; }
  bool has_value() const { return has_value_; }
  void Reset() {
    value_ = 0.0;
    has_value_ = false;
  }

 private:
  double value_ = 0.0;
  bool has_value_ = false;
};

// Fixed-bucket histogram. A sample lands in the first bucket whose upper
// bound is >= the sample ("le" semantics); samples above every bound land in
// the implicit overflow bucket. Bounds are fixed at registration so the
// hot path is a linear scan over a handful of doubles.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double sample);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  // One count per bound plus the trailing overflow bucket.
  const std::vector<long long>& bucket_counts() const { return counts_; }
  long long count() const { return count_; }
  double sum() const { return sum_; }
  void Reset();

  // Overwrites the histogram's state from a snapshot (shared-prefix fork
  // restore). `bucket_counts` must match the registered bucket count.
  void Restore(const std::vector<long long>& bucket_counts, long long count, double sum);

 private:
  std::vector<double> upper_bounds_;
  std::vector<long long> counts_;
  long long count_ = 0;
  double sum_ = 0.0;
};

struct CounterSnapshot {
  std::string name;
  long long value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
  // Whether the gauge had ever been Set(). Restore() needs this to tell an
  // untouched gauge apart from one explicitly set to 0.
  bool has_value = false;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<long long> bucket_counts;
  long long count = 0;
  double sum = 0.0;
};

// A point-in-time copy of every registered instrument, name-sorted.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Human-readable multi-line dump (the --counters output).
  std::string ToString() const;
};

// Deterministic union of per-node snapshots into one cluster-wide view:
// counters sum by name; histograms with identical bounds merge bucket-wise
// (mismatched bounds are a caller bug and abort); gauges keep the maximum
// set value per name — commutative, so the result is independent of input
// order. Inputs must each be name-sorted (as Registry::Snapshot produces).
RegistrySnapshot MergeRegistrySnapshots(const std::vector<const RegistrySnapshot*>& parts);

// Owns the instruments. Registration is idempotent: asking for an existing
// name returns the same pointer, so independent modules can share an
// instrument by name. Pointers stay valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(const std::string& name) PDPA_EXCLUDES(mutex_);
  Gauge* gauge(const std::string& name) PDPA_EXCLUDES(mutex_);
  // `upper_bounds` must be non-empty and strictly increasing; ignored (the
  // original bounds win) when `name` already exists.
  Histogram* histogram(const std::string& name, std::vector<double> upper_bounds)
      PDPA_EXCLUDES(mutex_);

  RegistrySnapshot Snapshot() const PDPA_EXCLUDES(mutex_);

  // Zeroes every instrument's value; registrations (and pointers) survive.
  void ResetAll() PDPA_EXCLUDES(mutex_);

  // Overwrites instruments named in `snapshot` with the snapshotted values,
  // registering any that do not exist yet (shared-prefix fork restore: a
  // forked run adopts the prefix run's instrument state so its final counter
  // dump matches a cold run byte for byte). Instruments registered here but
  // absent from the snapshot are reset to zero.
  void Restore(const RegistrySnapshot& snapshot) PDPA_EXCLUDES(mutex_);

 private:
  // Compile-time lock-discipline probe (tests/tsa_probe); never defined in
  // production code.
  friend struct RegistryTsaProbe;

  // Guards the name->instrument maps (registration, snapshot, reset), not
  // the instrument values themselves: callers that cache instrument
  // pointers mutate them lock-free, which is safe because one run's
  // instruments are only touched by the thread driving that run. Highest
  // rank in the hierarchy (DESIGN.md §8): registration happens under sweep
  // and fork locks, and never calls back out.
  mutable Mutex mutex_{PDPA_LOCK_RANK(40)};
  std::map<std::string, std::unique_ptr<Counter>> counters_ PDPA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ PDPA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ PDPA_GUARDED_BY(mutex_);
};

}  // namespace pdpa

#endif  // SRC_OBS_COUNTERS_H_
