// dne_perfbench: runs one workload of the repository benchmark, checks every
// output, and prints each metric by name and unit. The last line of stdout
// is the result as one JSON object; the exit code is non-zero when any op
// failed or the run was inconsistent. perfbench/run.py builds and runs it.
//
//   dne_perfbench --workload rmat-shm-ooc|road-inproc|serve-rmat-process
//                 --seed N --seconds S --trace 0|1
//                 [--git-sha SHA] [--source-digest HEX]
//
// Scratch files go to .bench_build/work/ and traces to .bench_build/traces/,
// relative to the current directory.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

constexpr const char* kUsage =
    "usage: dne_perfbench --workload rmat-shm-ooc|road-inproc|"
    "serve-rmat-process --seed N --seconds S --trace 0|1 [--git-sha SHA] "
    "[--source-digest HEX]\n";

bool ParseUint(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, *out);
  return !text.empty() && res.ec == std::errc() && res.ptr == end;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || kv.count(key.substr(2)) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return false;
  for (const auto& [key, value] : kv) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "git-sha" && key != "source-digest") {
      return false;
    }
  }
  std::uint64_t seconds = 0;
  std::uint64_t trace = 0;
  if (kv.count("workload") == 0 || !ParseUint(kv["seed"], &args->seed) ||
      !ParseUint(kv["seconds"], &seconds) || seconds < 1 || seconds > 3600 ||
      !ParseUint(kv["trace"], &trace) || trace > 1) {
    return false;
  }
  args->workload = kv["workload"];
  args->seconds = static_cast<double>(seconds);
  args->trace = trace == 1;
  args->work_dir = ".bench_build/work/run-" + std::to_string(::getpid());
  args->trace_path = ".bench_build/traces/" + args->workload + "-seed" +
                     std::to_string(args->seed) + ".json";
  args->git_sha = kv.count("git-sha") ? kv["git-sha"] : "unknown";
  args->source_digest =
      kv.count("source-digest") ? kv["source-digest"] : "unknown";
  return true;
}

// Appends "name": {"value": v, "unit": u} for every spec; a metric the run
// did not set reads as 0 (per-layer) or fails the run (end-to-end).
std::string MetricsJson(const std::vector<perfbench::MetricSpec>& specs,
                        bool required, RunResult* result, bool* valid) {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = result->values.find(specs[i].name);
    double value = 0.0;
    if (it != result->values.end()) {
      value = it->second;
    } else if (required) {
      value = std::nan("");
    }
    if (!std::isfinite(value)) {
      *valid = false;
      result->Note(std::string("error: metric ") + specs[i].name +
                   " was not measured");
    }
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
           "\": {\"value\": " + perfbench::FormatNumber(value) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title,
                const std::vector<perfbench::MetricSpec>& specs,
                const RunResult& result) {
  std::printf("%s\n", title);
  for (const perfbench::MetricSpec& spec : specs) {
    const auto it = result.values.find(spec.name);
    if (it == result.values.end()) {
      std::printf("  %-34s %18s %s\n", spec.name, "-", spec.unit);
    } else {
      std::printf("  %-34s %18.6f %s\n", spec.name, it->second, spec.unit);
    }
  }
}

// Folds the untraced run of a traced invocation into the traced run's
// result: its ops count toward attempted and failed, its notes are printed
// first, and trace.overhead_frac compares the two runs' op_p50_ms.
void MergeUntracedRun(const RunResult& untraced, RunResult* traced) {
  traced->tally.Add(untraced.tally);
  if (!untraced.consistent) traced->consistent = false;
  std::vector<std::string> notes = {"untraced run:"};
  for (const std::string& line : untraced.notes) notes.push_back("  " + line);
  notes.push_back("traced run:");
  for (const std::string& line : traced->notes) notes.push_back("  " + line);
  traced->notes = std::move(notes);
  const auto off = untraced.values.find("op_p50_ms");
  const auto on = traced->values.find("op_p50_ms");
  if (off == untraced.values.end() || on == traced->values.end()) return;
  traced->Set("trace.overhead_frac", on->second / off->second - 1.0);
  char line[160];
  std::snprintf(line, sizeof(line),
                "tracing overhead: op_p50 %.3f ms traced vs %.3f ms untraced",
                on->second, off->second);
  traced->Note(line);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  RunResult (*run)(const RunArgs&, perfbench::Tracer*) = nullptr;
  if (args.workload == "rmat-shm-ooc") run = perfbench::RunRmatShmOoc;
  if (args.workload == "road-inproc") run = perfbench::RunRoadInproc;
  if (args.workload == "serve-rmat-process") {
    run = perfbench::RunServeRmatProcess;
  }
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n%s", args.workload.c_str(),
                 kUsage);
    return 2;
  }

  const std::string fingerprint = perfbench::HostFingerprintJson(args);
  std::printf("perfbench: workload=%s seed=%llu seconds=%.0f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::fflush(stdout);

  perfbench::Tracer tracer(args.trace);
  RunResult result;
  std::error_code ec;
  const perfbench::CpuTicks ticks0 = perfbench::ReadCpuTicks();
  try {
    if (args.trace) {
      // The traced run is measured against an untraced run of the same
      // workload and seed; each gets half the seconds.
      RunArgs half = args;
      half.seconds = args.seconds / 2;
      perfbench::Tracer off(false);
      perfbench::ResetDirectory(args.work_dir);
      const RunResult untraced = run(half, &off);
      perfbench::ResetDirectory(args.work_dir);
      result = run(half, &tracer);
      MergeUntracedRun(untraced, &result);
    } else {
      perfbench::ResetDirectory(args.work_dir);
      result = run(args, &tracer);
    }
  } catch (const std::exception& e) {
    std::filesystem::remove_all(args.work_dir, ec);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::filesystem::remove_all(args.work_dir, ec);
  // Time the hypervisor gave to other guests slows a run on a shared host
  // without any change to the code; print it so such runs stand out.
  const perfbench::CpuTicks ticks1 = perfbench::ReadCpuTicks();
  if (ticks1.total > ticks0.total) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "host: %.2f%% of all cores' CPU time stolen by the "
                  "hypervisor during the run",
                  100.0 * static_cast<double>(ticks1.steal - ticks0.steal) /
                      static_cast<double>(ticks1.total - ticks0.total));
    result.Note(line);
  }

  if (args.trace) {
    perfbench::SetSpanMetrics(tracer, &result);
    std::filesystem::create_directories(
        std::filesystem::path(args.trace_path).parent_path(), ec);
    std::ofstream(args.trace_path) << tracer.ChromeJson(fingerprint);
    result.Note("chrome trace: " + args.trace_path);
  }

  bool valid = true;
  const std::string metrics =
      args.trace ? MetricsJson(perfbench::PerLayerMetrics(), false, &result,
                               &valid)
                 : MetricsJson(perfbench::EndToEndMetrics(), true, &result,
                               &valid);
  const bool correct = valid && result.consistent &&
                       result.tally.attempted() > 0 &&
                       result.tally.failed() == 0;
  if (!result.tally.first_error().empty()) {
    result.Note("first failed op: " + result.tally.first_error());
  }
  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  if (args.trace) {
    PrintTable("per-layer:", perfbench::PerLayerMetrics(), result);
  } else {
    PrintTable("end-to-end:", perfbench::EndToEndMetrics(), result);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(result.tally.attempted()),
      static_cast<unsigned long long>(result.tally.failed()), metrics.c_str());
  return correct ? 0 : 1;
}
