// AllocationPlan: the target processor count per job a scheduling policy
// returns to the resource manager.
//
// A flat container of (JobId, count) entries kept sorted by JobId, with
// inline storage for the handful of jobs one SMP node runs. Policies build a
// plan on every decision (job start, finish, report, quantum), so the plan
// must not allocate: up to kInlineJobs entries live inside the object, and
// only a larger plan spills to the heap. Iteration visits entries in
// ascending JobId order, the order of a JobId-keyed ordered map, so the
// machine hands out CPUs in that order.
#ifndef SRC_RM_ALLOCATION_PLAN_H_
#define SRC_RM_ALLOCATION_PLAN_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/logging.h"

namespace pdpa {

class AllocationPlan {
 public:
  using value_type = std::pair<JobId, int>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  // Entries held without touching the heap.
  static constexpr std::size_t kInlineJobs = 8;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  const_iterator find(JobId job) const {
    const const_iterator it = LowerBound(job);
    return it != end() && it->first == job ? it : end();
  }
  bool contains(JobId job) const { return find(job) != end(); }

  // Count for `job`; the job must be in the plan.
  int at(JobId job) const {
    const const_iterator it = find(job);
    PDPA_CHECK(it != end()) << "job " << job << " not in plan";
    return it->second;
  }

  // Count for `job`, inserting 0 first when absent.
  int& operator[](JobId job) { return Insert(job, 0).first->second; }

  // Inserts (job, count) unless `job` is already present; an existing entry
  // keeps its value. Returns the entry and whether it was inserted.
  std::pair<iterator, bool> emplace(JobId job, int count) { return Insert(job, count); }

  friend bool operator==(const AllocationPlan& a, const AllocationPlan& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  value_type* data() { return spilled() ? spill_.data() : inline_.data(); }
  const value_type* data() const { return spilled() ? spill_.data() : inline_.data(); }
  bool spilled() const { return !spill_.empty(); }

  const_iterator LowerBound(JobId job) const {
    // Policies fill plans in context (arrival == JobId) order, so the common
    // probe is past the last entry.
    if (size_ == 0 || end()[-1].first < job) {
      return end();
    }
    return std::lower_bound(begin(), end(), job,
                            [](const value_type& entry, JobId id) { return entry.first < id; });
  }

  std::pair<iterator, bool> Insert(JobId job, int count) {
    const std::size_t pos = static_cast<std::size_t>(LowerBound(job) - begin());
    if (pos < size_ && data()[pos].first == job) {
      return {data() + pos, false};
    }
    if (spilled()) {
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(pos), value_type(job, count));
    } else if (size_ < kInlineJobs) {
      std::move_backward(inline_.begin() + pos, inline_.begin() + size_,
                         inline_.begin() + size_ + 1);
      inline_[pos] = value_type(job, count);
    } else {
      spill_.reserve(2 * kInlineJobs);
      spill_.assign(inline_.begin(), inline_.begin() + size_);
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(pos), value_type(job, count));
    }
    ++size_;
    return {data() + pos, true};
  }

  std::array<value_type, kInlineJobs> inline_{};
  // Holds every entry once the plan outgrows inline_ (non-empty from then
  // on: plans only grow).
  std::vector<value_type> spill_;
  std::size_t size_ = 0;
};

}  // namespace pdpa

#endif  // SRC_RM_ALLOCATION_PLAN_H_
