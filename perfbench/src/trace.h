// Spans recorded by the traced run around every call the benchmark makes
// into a layer of the program, kept in memory and written at exit as Chrome
// trace-event JSON (opens in Perfetto or chrome://tracing).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds. CLOCK_MONOTONIC is system-wide, so stamps taken
/// in a forked helper process line up with the parent's.
std::int64_t NowNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;       ///< index of the enclosing span; -1 for a root
  std::uint64_t id = 0;  ///< op, request or set-up id shared by its spans
  int lane = 0;          ///< trace row: 0 set-up, 1.. one per op issuer
};

/// Thread-safe span store. A disabled tracer records nothing and returns -1
/// from Add, so call sites need no branches of their own.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

  bool enabled() const { return enabled_; }
  /// Stores a finished span and returns its index.
  int Add(Span span);
  /// Stores `root`, then `children` with their parent set to it.
  void AddTree(Span root, std::vector<Span> children);
  std::vector<Span> spans() const;
  /// Chrome trace-event JSON; `other_data` is a JSON object embedded as the
  /// file's otherData (the host fingerprint).
  std::string ChromeJson(const std::string& other_data) const;

 private:
  const bool enabled_;
  const std::int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Runs `fn` and appends a span named `name` for `id` to `spans`; returns
/// what `fn` returns. Set-up code collects its layer spans this way and adds
/// them under the set-up span once that span has ended.
template <typename Fn>
auto Timed(std::vector<Span>* spans, const char* name, std::uint64_t id,
           Fn&& fn) {
  const std::int64_t start = NowNs();
  auto out = fn();
  spans->push_back({name, start, NowNs(), -1, id, 0});
  return out;
}

/// Per span: its duration minus the part of it its direct children cover,
/// in seconds. For an op this is the time no layer span accounts for.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Durations in seconds of every span called `name`.
std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                const std::string& name);

/// One row of the per-layer summary: calls, summed duration, summed self
/// time of every span with this name.
struct LayerTime {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<LayerTime> SummarizeByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
