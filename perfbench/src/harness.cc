#include "harness.h"

#include <fcntl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/random.h"
#include "graph/edge_stream_reader.h"
#include "graph/graph_io.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"op_p50_ms", "ms"},          {"op_p90_ms", "ms"},
      {"queries_per_s", "1/s"},     {"replication_factor", "ratio"},
      {"edge_balance", "ratio"},    {"vertex_balance", "ratio"},
      {"peak_rss_mb", "MB"},        {"rank_rss_mb", "MB"},
      {"setup_s", "s"},             {"ok_frac", "frac"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"gen.generate_s", "s"},
      {"graph.build_s", "s"},
      {"graph.save_s", "s"},
      {"graph.stream_scan_s", "s"},
      {"partition.dne.distribute_s", "s"},
      {"partition.dne.phase_a_s", "s"},
      {"partition.dne.phase_b_s", "s"},
      {"partition.dne.phase_c_s", "s"},
      {"partition.dne.phase_d_s", "s"},
      {"partition.dne.supersteps", "count"},
      {"partition.dne.one_hop_edges", "count"},
      {"partition.dne.two_hop_edges", "count"},
      {"partition.dne.random_restarts", "count"},
      {"partition.dne.boundary_imbalance", "ratio"},
      {"runtime.payload_bytes", "bytes"},
      {"runtime.wire_bytes", "bytes"},
      {"runtime.wire_frames", "count"},
      {"runtime.ckpt_bytes", "bytes"},
      {"runtime.ckpt_s", "s"},
      {"runtime.recoveries", "count"},
      {"runtime.rank_processes", "count"},
      {"metrics.validate_s", "s"},
      {"metrics.quality_s", "s"},
      {"apps.serve.queue_ms", "ms"},
      {"apps.serve.execute_ms", "ms"},
      {"apps.serve.supersteps", "count"},
      {"apps.serve.sync_bytes", "bytes"},
      {"apps.serve.wire_bytes", "bytes"},
      {"apps.serve.wire_frames", "count"},
      {"apps.serve.shed", "count"},
      {"apps.serve.shard_build_s", "s"},
      {"apps.serve.first_query_s", "s"},
      {"op.unaccounted_ms", "ms"},
      {"op.unaccounted_frac", "frac"},
      {"setup.unaccounted_s", "s"},
      {"trace.overhead_frac", "frac"},
  };
  return kSpecs;
}

void RunResult::Inconsistent(const std::string& what) {
  if (consistent) Note("INCONSISTENT: " + what);
  consistent = false;
}

std::uint64_t DeriveSeed(std::uint64_t workload_seed, std::uint64_t purpose) {
  dne::SplitMix64 rng(workload_seed * 0x2545f4914f6cdd1dULL + purpose);
  const std::uint64_t s = rng();
  return s == 0 ? 1 : s;
}

InputSeeds SeedsFor(std::uint64_t workload_seed, int index) {
  InputSeeds seeds;
  const auto i = static_cast<std::uint64_t>(index);
  seeds.graph = DeriveSeed(workload_seed, 2 * i + 1);
  seeds.dne = DeriveSeed(workload_seed, 2 * i + 2);
  return seeds;
}

std::uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kib = 0;
      const char* p = line.c_str() + 6;
      while (*p == ' ' || *p == '\t') ++p;
      std::from_chars(p, line.c_str() + line.size(), kib);
      return kib * 1024;
    }
  }
  return 0;
}

void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal; guest time is already
  // counted in user and nice.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

std::string HostFingerprintJson(const RunArgs& args) {
  utsname u{};
  std::string kernel = "unknown";
  if (::uname(&u) == 0) kernel = std::string(u.sysname) + " " + u.release;
  return "{\"git_sha\":" + JsonString(args.git_sha) +
         ",\"source_digest\":" + JsonString(args.source_digest) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(Compiler()) +
         ",\"cpu\":" + JsonString(CpuModel()) +
         ",\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"kernel\":" + JsonString(kernel) + "}";
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

bool ReadFull(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

HelperProcess::HelperProcess(const Body& body) {
  int down[2];
  int up[2];
  if (::pipe2(down, O_CLOEXEC) != 0) return;
  if (::pipe2(up, O_CLOEXEC) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    return;
  }
  std::fflush(nullptr);  // nothing buffered may be written twice
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Keep only stdio and this child's own pipe ends: a copy of another
    // helper's pipe would keep that helper from seeing its EOF.
    const auto [lo, hi] = std::minmax(down[0], up[1]);
    ::close_range(3, lo - 1, 0);
    ::close_range(lo + 1, hi - 1, 0);
    ::close_range(hi + 1, ~0u, 0);
    int code = 3;
    try {
      code = body(down[0], up[1]);
    } catch (...) {
      code = 4;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(down[0]);
  ::close(up[1]);
  if (pid < 0) {
    ::close(down[1]);
    ::close(up[0]);
    return;
  }
  pid_ = pid;
  to_child_ = down[1];
  from_child_ = up[0];
}

HelperProcess::~HelperProcess() { Finish(); }

bool HelperProcess::Write(const void* data, std::size_t n) {
  return to_child_ >= 0 && WriteFull(to_child_, data, n);
}

bool HelperProcess::Read(void* data, std::size_t n) {
  return from_child_ >= 0 && ReadFull(from_child_, data, n);
}

int HelperProcess::Finish() {
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
  to_child_ = from_child_ = -1;
  if (pid_ <= 0) return -1;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  return r > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void SetEndToEndMetrics(const OpPhase& ops,
                        const std::vector<InputSetup>& inputs,
                        RunResult* result) {
  const double p50 = Median(ops.op_s);
  const double p90 = Quantile(ops.op_s, 0.9);
  result->Set("op_p50_ms", p50 * 1e3);
  result->Set("op_p90_ms", ops.input_p50_s.empty()
                               ? p90 * 1e3
                               : Quantile(ops.input_p50_s, 0.9) * 1e3);
  result->Set("queries_per_s",
              static_cast<double>(ops.op_s.size()) / ops.busy_s);
  const double n = static_cast<double>(inputs.size());
  double rf = 0.0, eb = 0.0, vb = 0.0;
  std::vector<double> setup_s;
  for (const InputSetup& in : inputs) {
    rf += in.replication_factor / n;
    eb += in.edge_balance / n;
    vb += in.vertex_balance / n;
    setup_s.push_back(in.setup_s);
  }
  result->Set("replication_factor", rf);
  result->Set("edge_balance", eb);
  result->Set("vertex_balance", vb);
  result->Set("peak_rss_mb", ops.peak_rss_bytes / 1e6);
  result->Set("rank_rss_mb", ops.rank_rss_bytes / 1e6);
  result->Set("setup_s", Median(setup_s));
  result->Set("ok_frac", result->tally.ok_frac());

  char line[256];
  std::snprintf(line, sizeof(line),
                "ops: n=%zu over %zu inputs  p50 %.3f ms  p90 %.3f ms (%zu "
                "beyond it%s)",
                ops.op_s.size(), inputs.size(), p50 * 1e3, p90 * 1e3,
                CountAbove(ops.op_s, p90),
                TailQuantile(ops.op_s, 0.9) ? ""
                                            : "; fewer than 10, not a tail");
  result->Note(line);
  if (!ops.input_p50_s.empty()) {
    std::string medians = "median op time per input (ms):";
    for (const double m : ops.input_p50_s) {
      std::snprintf(line, sizeof(line), " %.3f", m * 1e3);
      medians += line;
    }
    result->Note(medians + "; op_p90_ms is their p90");
  }
}

OpPhase RunPartitionOps(double seconds,
                        const std::vector<DneCounts>& reference,
                        const PartitionOp& op, const PartitionCheck& check,
                        Tracer* tracer, RunResult* result) {
  const std::size_t inputs = reference.size();
  std::vector<dne::DneStats> first(inputs);
  std::vector<std::vector<double>> input_op_s(inputs);
  std::vector<std::uint64_t> rank_rss(inputs, 0);
  std::vector<dne::DneStats> traced_stats;
  OpPhase phase;
  ResetPeakRss();
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t k = 0; k < inputs || NowNs() < deadline; ++k) {
    const int input = static_cast<int>(k % inputs);
    dne::EdgePartition out;
    dne::DneStats stats;
    const std::int64_t start = NowNs();
    dne::Status st = op(input, &out, &stats);
    const std::int64_t end = NowNs();
    const double op_s = static_cast<double>(end - start) / 1e9;
    phase.op_s.push_back(op_s);
    input_op_s[input].push_back(op_s);
    phase.busy_s += op_s;
    if (st.ok() && stats.recoveries != 0) {
      st = dne::Status::Internal("op needed rank-failure recoveries");
    }
    if (st.ok() && !(CountsOf(stats) == reference[input])) {
      st = dne::Status::Internal("DNE counts differ from the reference");
    }
    const dne::DneStats& was = first[input];
    if (st.ok() && k >= inputs &&
        (stats.comm_bytes != was.comm_bytes ||
         stats.wire_bytes != was.wire_bytes ||
         stats.wire_frames != was.wire_frames ||
         stats.checkpoint_bytes != was.checkpoint_bytes)) {
      st = dne::Status::Internal("runtime counts differ between ops");
    }
    if (st.ok()) {
      st = check(input, out, tracer->enabled() ? tracer : nullptr, k);
    }
    if (k < inputs) first[input] = stats;
    for (const std::uint64_t b : stats.process_rss_bytes) {
      rank_rss[input] = std::max(rank_rss[input], b);
    }
    if (tracer->enabled()) {
      TracePartitionOp(tracer, k, start, end, stats);
      traced_stats.push_back(stats);
    }
    result->tally.Record(st);
  }
  for (const std::vector<double>& times : input_op_s) {
    phase.input_p50_s.push_back(Median(times));
  }
  phase.peak_rss_bytes = static_cast<double>(PeakRssBytes());
  // Where the ranks are threads, the benchmark process is the rank process.
  for (const std::uint64_t b : rank_rss) {
    phase.rank_rss_bytes +=
        (b > 0 ? static_cast<double>(b) : phase.peak_rss_bytes) /
        static_cast<double>(inputs);
  }
  if (tracer->enabled()) SetDneLayerMetrics(traced_stats, result);
  return phase;
}

void SetDneLayerMetrics(const std::vector<dne::DneStats>& runs,
                        RunResult* result) {
  if (runs.empty()) return;
  std::vector<double> distribute, a, b, c, d, ckpt;
  const double n = static_cast<double>(runs.size());
  double supersteps = 0, one_hop = 0, two_hop = 0, restarts = 0;
  double imbalance = 0, payload = 0, wire = 0, frames = 0, ckpt_bytes = 0;
  double recoveries = 0, processes = 0;
  for (const dne::DneStats& s : runs) {
    distribute.push_back(s.host_distribute_seconds);
    a.push_back(s.host_phase_a_seconds);
    b.push_back(s.host_phase_b_seconds);
    c.push_back(s.host_phase_c_seconds);
    d.push_back(s.host_phase_d_seconds);
    ckpt.push_back(s.checkpoint_seconds);
    supersteps += static_cast<double>(s.iterations) / n;
    one_hop += static_cast<double>(s.one_hop_edges) / n;
    two_hop += static_cast<double>(s.two_hop_edges) / n;
    restarts += static_cast<double>(s.random_restarts) / n;
    imbalance += s.boundary_imbalance / n;
    payload += static_cast<double>(s.comm_bytes) / n;
    wire += static_cast<double>(s.wire_bytes) / n;
    frames += static_cast<double>(s.wire_frames) / n;
    ckpt_bytes += static_cast<double>(s.checkpoint_bytes) / n;
    recoveries += static_cast<double>(s.recoveries);
    processes += static_cast<double>(s.rank_processes) / n;
  }
  result->Set("partition.dne.distribute_s", Median(distribute));
  result->Set("partition.dne.phase_a_s", Median(a));
  result->Set("partition.dne.phase_b_s", Median(b));
  result->Set("partition.dne.phase_c_s", Median(c));
  result->Set("partition.dne.phase_d_s", Median(d));
  result->Set("partition.dne.supersteps", supersteps);
  result->Set("partition.dne.one_hop_edges", one_hop);
  result->Set("partition.dne.two_hop_edges", two_hop);
  result->Set("partition.dne.random_restarts", restarts);
  result->Set("partition.dne.boundary_imbalance", imbalance);
  result->Set("runtime.payload_bytes", payload);
  result->Set("runtime.wire_bytes", wire);
  result->Set("runtime.wire_frames", frames);
  result->Set("runtime.ckpt_bytes", ckpt_bytes);
  result->Set("runtime.ckpt_s", Median(ckpt));
  result->Set("runtime.recoveries", recoveries);
  result->Set("runtime.rank_processes", processes);
}

void TracePartitionOp(Tracer* tracer, std::uint64_t op, std::int64_t start,
                      std::int64_t end, const dne::DneStats& stats) {
  const int root = tracer->Add({"op", start, end, -1, op, 1});
  if (root < 0) return;
  std::int64_t cursor = start;
  const auto child = [&](const char* name, double seconds) {
    const std::int64_t stop =
        std::min(end, cursor + static_cast<std::int64_t>(seconds * 1e9));
    tracer->Add({name, cursor, stop, root, op, 1});
    cursor = stop;
  };
  child("partition.dne.distribute", stats.host_distribute_seconds);
  child("partition.dne.phase_a", stats.host_phase_a_seconds);
  child("partition.dne.phase_b", stats.host_phase_b_seconds);
  child("partition.dne.phase_c", stats.host_phase_c_seconds);
  child("partition.dne.phase_d", stats.host_phase_d_seconds);
  if (stats.rank_processes > 0 && stats.checkpoint_seconds > 0.0) {
    // Summed over rank processes that write concurrently: the mean is the
    // share of the op's wall time.
    child("runtime.ckpt",
          stats.checkpoint_seconds / static_cast<double>(stats.rank_processes));
  }
}

void SetSpanMetrics(const Tracer& tracer, RunResult* result) {
  const std::vector<Span> spans = tracer.spans();
  if (spans.empty()) return;
  for (const char* layer :
       {"gen.generate", "graph.build", "graph.save", "graph.stream_scan",
        "metrics.validate", "metrics.quality", "apps.serve.shard_build",
        "apps.serve.first_query"}) {
    const std::vector<double> d = DurationsOf(spans, layer);
    if (!d.empty()) result->Set(std::string(layer) + "_s", Median(d));
  }
  for (const char* layer : {"apps.serve.queue", "apps.serve.execute"}) {
    const std::vector<double> d = DurationsOf(spans, layer);
    if (!d.empty()) result->Set(std::string(layer) + "_ms", Median(d) * 1e3);
  }
  const std::vector<double> self = SelfSeconds(spans);
  std::vector<double> op_self, op_frac, setup_self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    if (spans[i].name == "op") {
      op_self.push_back(self[i]);
      op_frac.push_back(dur > 0.0 ? self[i] / dur : 0.0);
    } else if (spans[i].name == "setup") {
      setup_self.push_back(self[i]);
    }
  }
  char line[256];
  if (!op_self.empty()) {
    result->Set("op.unaccounted_ms", Median(op_self) * 1e3);
    result->Set("op.unaccounted_frac", Median(op_frac));
    std::snprintf(line, sizeof(line),
                  "unaccounted share of each op: min %.4f  p50 %.4f  p90 "
                  "%.4f  max %.4f over %zu ops",
                  Quantile(op_frac, 0.0), Median(op_frac),
                  Quantile(op_frac, 0.9), Quantile(op_frac, 1.0),
                  op_frac.size());
    result->Note(line);
  }
  if (!setup_self.empty()) {
    result->Set("setup.unaccounted_s", Median(setup_self));
  }
  result->Note("per-layer self time (span minus its child spans):");
  for (const LayerTime& row : SummarizeByName(spans)) {
    std::snprintf(line, sizeof(line),
                  "  %-28s calls %6zu  total %10.4f s  self %10.4f s",
                  row.name.c_str(), row.calls, row.total_s, row.self_s);
    result->Note(line);
  }
}

dne::Status TraceStreamScan(Tracer* tracer, const std::string& path,
                            std::uint64_t* edges_read) {
  const std::int64_t start = NowNs();
  std::unique_ptr<dne::EdgeStreamReader> reader;
  DNE_RETURN_IF_ERROR(
      dne::OpenEdgeStream(path, "bin", kStreamChunkEdges, &reader));
  std::vector<dne::Edge> chunk;
  *edges_read = 0;
  for (;;) {
    DNE_RETURN_IF_ERROR(reader->NextChunk(&chunk));
    if (chunk.empty()) break;
    *edges_read += chunk.size();
  }
  tracer->Add({"graph.stream_scan", start, NowNs(), -1, 0, 0});
  return dne::Status::OK();
}

dne::Status TraceFileRoundTrip(Tracer* tracer, const dne::EdgeList& edges,
                               const std::string& path) {
  const std::int64_t start = NowNs();
  DNE_RETURN_IF_ERROR(dne::SaveEdgeListBinary(path, edges));
  tracer->Add({"graph.save", start, NowNs(), -1, 0, 0});
  std::uint64_t read = 0;
  DNE_RETURN_IF_ERROR(TraceStreamScan(tracer, path, &read));
  if (read != edges.NumEdges()) {
    return dne::Status::Internal("stream scan read " + std::to_string(read) +
                                 " of " + std::to_string(edges.NumEdges()) +
                                 " edges");
  }
  return dne::Status::OK();
}

void ResetDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

}  // namespace perfbench
