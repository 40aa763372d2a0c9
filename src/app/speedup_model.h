// Speedup models: how fast an application runs with p processors relative to
// one processor. The scheduler never sees these curves directly — it only
// sees iteration timings measured by the SelfAnalyzer — but the simulated
// applications execute according to them.
#ifndef SRC_APP_SPEEDUP_MODEL_H_
#define SRC_APP_SPEEDUP_MODEL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pdpa {

class SpeedupModel {
 public:
  virtual ~SpeedupModel() = default;

  // Speedup at (possibly fractional) processor count p >= 0. Must satisfy
  // SpeedupAt(0) == 0 and SpeedupAt(1) == 1.
  virtual double SpeedupAt(double p) const = 0;

  // Efficiency = S(p) / p; defined as 1 at p == 0 for convenience.
  double EfficiencyAt(double p) const;

  // Exact maximum of SpeedupAt over [lo, hi], 0 < lo <= hi.
  virtual double MaxSpeedupOver(double lo, double hi) const = 0;

  virtual std::string DebugString() const = 0;
};

// Amdahl's law: S(p) = 1 / ((1 - f) + f / p), with parallel fraction f.
class AmdahlSpeedup : public SpeedupModel {
 public:
  explicit AmdahlSpeedup(double parallel_fraction);

  double SpeedupAt(double p) const override;
  // Non-decreasing in p: the maximum sits at `hi`.
  double MaxSpeedupOver(double lo, double hi) const override;
  std::string DebugString() const override;

  double parallel_fraction() const { return parallel_fraction_; }

 private:
  double parallel_fraction_;
};

// Piecewise-linear interpolation through (p, S) control points. Used for the
// four applications in the paper, digitized from Fig. 3. Extrapolates flat
// beyond the last point.
class TableSpeedup : public SpeedupModel {
 public:
  // `points` must be sorted by p, start at (1, 1) or earlier, and be
  // non-negative. A (0, 0) anchor is added automatically.
  explicit TableSpeedup(std::vector<std::pair<double, double>> points);

  double SpeedupAt(double p) const override;
  // Piecewise linear, so the maximum sits at an end point or at a control
  // point inside the range; the curve may be non-monotone.
  double MaxSpeedupOver(double lo, double hi) const override;
  std::string DebugString() const override;

 private:
  std::vector<std::pair<double, double>> points_;
};

// Convenience factory for a curve that is linear up to `knee` processors and
// saturates at `max_speedup` following a geometric approach.
std::unique_ptr<SpeedupModel> MakeSaturatingSpeedup(double knee, double max_speedup);

}  // namespace pdpa

#endif  // SRC_APP_SPEEDUP_MODEL_H_
