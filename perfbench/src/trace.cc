#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Add(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddTree(Span root, std::vector<Span> children) {
  const int parent = Add(std::move(root));
  if (parent < 0) return;
  for (Span& child : children) {
    child.parent = parent;
    Add(std::move(child));
  }
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::ChromeJson(const std::string& other_data) const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":" +
                    other_data + ",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%d,\"span\":%zu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.lane,
                  static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id), s.parent, i);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return self;
}

std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
    }
  }
  return out;
}

std::vector<LayerTime> SummarizeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, LayerTime> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& row = rows[spans[i].name];
    row.name = spans[i].name;
    ++row.calls;
    row.total_s +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    row.self_s += self[i];
  }
  std::vector<LayerTime> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

}  // namespace perfbench
