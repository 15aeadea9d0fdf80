// Order statistics the benchmark reports: medians and interpolated
// percentiles gated on how many samples lie beyond them. The run-to-run
// spread is perfbench/spread.py's.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile counts as a measured tail only when at least this many
/// samples lie strictly above it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Linearly interpolated q-quantile (q in [0, 1]) of `xs`; NaN when empty.
double Quantile(std::vector<double> xs, double q);

/// Quantile(xs, 0.5): the mean of the two middle samples for an even count.
double Median(std::vector<double> xs);

/// Samples strictly greater than `value`.
std::size_t CountAbove(const std::vector<double>& xs, double value);

/// The q-quantile when at least kMinTailSamples samples lie above it,
/// nothing otherwise.
std::optional<double> TailQuantile(const std::vector<double>& xs, double q);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
