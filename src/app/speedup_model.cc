#include "src/app/speedup_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace pdpa {

double SpeedupModel::EfficiencyAt(double p) const {
  if (p <= 0.0) {
    return 1.0;
  }
  return SpeedupAt(p) / p;
}

AmdahlSpeedup::AmdahlSpeedup(double parallel_fraction) : parallel_fraction_(parallel_fraction) {
  PDPA_CHECK_GE(parallel_fraction, 0.0);
  PDPA_CHECK_LE(parallel_fraction, 1.0);
}

double AmdahlSpeedup::SpeedupAt(double p) const {
  if (p <= 0.0) {
    return 0.0;
  }
  const double serial = 1.0 - parallel_fraction_;
  return 1.0 / (serial + parallel_fraction_ / p);
}

double AmdahlSpeedup::MaxSpeedupOver(double lo, double hi) const {
  (void)lo;
  return SpeedupAt(hi);
}

std::string AmdahlSpeedup::DebugString() const {
  return StrFormat("Amdahl(f=%.3f)", parallel_fraction_);
}

TableSpeedup::TableSpeedup(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  PDPA_CHECK(!points_.empty());
  for (std::size_t i = 1; i < points_.size(); ++i) {
    PDPA_CHECK_GT(points_[i].first, points_[i - 1].first) << "points must be sorted by p";
  }
  if (points_.front().first > 0.0) {
    points_.insert(points_.begin(), {0.0, 0.0});
  }
}

double TableSpeedup::SpeedupAt(double p) const {
  if (p <= 0.0) {
    return 0.0;
  }
  if (p >= points_.back().first) {
    return points_.back().second;
  }
  // Binary search for the segment containing p.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), p,
      [](double value, const std::pair<double, double>& pt) { return value < pt.first; });
  PDPA_CHECK(it != points_.begin());
  PDPA_CHECK(it != points_.end());
  const auto& [p1, s1] = *(it - 1);
  const auto& [p2, s2] = *it;
  const double frac = (p - p1) / (p2 - p1);
  return s1 + frac * (s2 - s1);
}

double TableSpeedup::MaxSpeedupOver(double lo, double hi) const {
  double best = std::max(SpeedupAt(lo), SpeedupAt(hi));
  for (const auto& [p, s] : points_) {
    if (p > lo && p < hi) {
      best = std::max(best, s);
    }
  }
  return best;
}

std::string TableSpeedup::DebugString() const {
  std::string out = "Table(";
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) {
      out += " ";
    }
    out += StrFormat("%.3g:%.3g", points_[i].first, points_[i].second);
  }
  out += ")";
  return out;
}

std::unique_ptr<SpeedupModel> MakeSaturatingSpeedup(double knee, double max_speedup) {
  PDPA_CHECK_GT(knee, 0.0);
  PDPA_CHECK_GE(max_speedup, knee);
  std::vector<std::pair<double, double>> points;
  points.emplace_back(1.0, 1.0);
  // Linear ramp to the knee, then geometric saturation toward max_speedup.
  if (knee > 1.0) {
    points.emplace_back(knee, knee);
  }
  double s = knee;
  double p = knee;
  for (int i = 0; i < 6; ++i) {
    p *= 2.0;
    s = max_speedup - (max_speedup - s) * 0.5;
    points.emplace_back(p, s);
  }
  return std::make_unique<TableSpeedup>(std::move(points));
}

}  // namespace pdpa
