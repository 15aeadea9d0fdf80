#include "stats.h"

#include <algorithm>
#include <limits>

namespace perfbench {

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

std::size_t CountAbove(const std::vector<double>& xs, double value) {
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [value](double x) {
        return x > value;
      }));
}

std::optional<double> TailQuantile(const std::vector<double>& xs, double q) {
  const double value = Quantile(xs, q);
  if (xs.empty() || CountAbove(xs, value) < kMinTailSamples) {
    return std::nullopt;
  }
  return value;
}

}  // namespace perfbench
