// Shared plumbing of the benchmark's workloads: run arguments, the metric
// record each workload fills, seed derivation, RSS probes, the host
// fingerprint, and the helper process that keeps a graph out of the
// coordinator's address space.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/edge_list.h"
#include "partition/dne/dne_options.h"
#include "trace.h"
#include "verify.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory for the run's files (graph file, checkpoints).
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_path;
  /// Fingerprint fields only the launcher can see.
  std::string git_sha;
  std::string source_digest;
};

/// Inputs per run. Each input has its own graph and DNE seed and its own
/// set-up; the run's metrics pool or average them, so one seed's graph does
/// not set the whole result.
inline constexpr int kInputs = 5;

/// Graph and DNE seed of input `index` of a run.
struct InputSeeds {
  std::uint64_t graph = 0;
  std::uint64_t dne = 0;
};
InputSeeds SeedsFor(std::uint64_t workload_seed, int index);

/// One metric of BENCHMARK.json: name and unit, in file order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Everything a workload reports. Metric values are set by name; main
/// prints them in BENCHMARK.json order. A per-layer metric a workload never
/// sets is 0: that workload does not exercise the layer.
struct RunResult {
  std::map<std::string, double> values;
  OpTally tally;
  /// False when quality metrics or counts differed between set-ups.
  bool consistent = true;
  /// Human-readable lines printed above the result.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Marks the run inconsistent and says why.
  void Inconsistent(const std::string& what);
};

/// Per-purpose seed derived from the workload seed (graph, DNE, ...), so a
/// run's inputs follow from --seed alone.
std::uint64_t DeriveSeed(std::uint64_t workload_seed, std::uint64_t purpose);

/// Peak resident set (VmHWM) of this process, in bytes; 0 if unreadable.
std::uint64_t PeakRssBytes();
/// Resets VmHWM to the current RSS (/proc/self/clear_refs <- 5) so the next
/// PeakRssBytes covers only what runs after this call. Where the kernel
/// refuses the write, the peak covers the whole process life.
void ResetPeakRss();

/// The host's CPU time over all cores since boot (/proc/stat), in clock
/// ticks: every state summed, and the part the hypervisor stole.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// git sha, source digest, build type, compiler, CPU model, nproc, kernel,
/// as one JSON object.
std::string HostFingerprintJson(const RunArgs& args);

/// Formats `v` with the shortest digits that read back exactly.
std::string FormatNumber(double v);

/// A forked helper process talking over a pipe pair. The child closes every
/// descriptor but stdio and its two pipe ends, runs `body` with them and
/// exits with its return value; the destructor closes the pipes and reaps
/// it.
class HelperProcess {
 public:
  using Body = std::function<int(int read_fd, int write_fd)>;
  explicit HelperProcess(const Body& body);
  ~HelperProcess();
  HelperProcess(const HelperProcess&) = delete;
  HelperProcess& operator=(const HelperProcess&) = delete;

  bool started() const { return pid_ > 0; }
  bool Write(const void* data, std::size_t n);
  bool Read(void* data, std::size_t n);
  /// Closes the pipes and waits; the child's exit code, or -1.
  int Finish();

 private:
  int pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

/// Full-length read/write on a descriptor, retrying on EINTR.
bool ReadFull(int fd, void* data, std::size_t n);
bool WriteFull(int fd, const void* data, std::size_t n);

/// Empties `dir` (creating it if needed).
void ResetDirectory(const std::string& dir);

/// What one input's set-up contributes to the end-to-end metrics.
struct InputSetup {
  double setup_s = 0.0;
  double replication_factor = 0.0;
  double edge_balance = 0.0;
  double vertex_balance = 0.0;
};

/// The op phase of a run.
struct OpPhase {
  /// Wall time of every op, in seconds.
  std::vector<double> op_s;
  /// Partition workloads only: each input's median op time, in seconds.
  std::vector<double> input_p50_s;
  /// Wall time the ops took: their sum where ops run one at a time, the
  /// span of the query phase where clients overlap.
  double busy_s = 0.0;
  /// Peak RSS of the benchmark process and of the largest rank process.
  double peak_rss_bytes = 0.0;
  double rank_rss_bytes = 0.0;
};

/// Every end-to-end metric: op_p50_ms and queries_per_s from `ops`,
/// setup_s as the median set-up, quality as the mean over inputs, ok_frac
/// from the tally. op_p90_ms is the 90th percentile of the op times, except
/// where `ops.input_p50_s` is set: a partition run has too few ops for a
/// tail, so there it is the 90th percentile of the inputs' median op times.
void SetEndToEndMetrics(const OpPhase& ops,
                        const std::vector<InputSetup>& inputs,
                        RunResult* result);

/// One partition op on prepared input `input`.
using PartitionOp = std::function<dne::Status(
    int input, dne::EdgePartition* out, dne::DneStats* stats)>;
/// Checks an op's assignment against input `input`'s reference. Traces the
/// check as op `op` when `tracer` is given.
using PartitionCheck = std::function<dne::Status(
    int input, const dne::EdgePartition& out, Tracer* tracer,
    std::uint64_t op)>;

/// The op phase of a partition workload. Ops run round-robin over the
/// prepared inputs until `seconds` are up and every input has run once, so
/// a slow stretch of the host hits every input alike. Each op must return
/// OK without recoveries, repeat its input's reference DNE counts
/// (`reference[input]`) and the runtime counts of the input's first op, and
/// pass `check`. In a traced run every op is traced and the partition.dne.*
/// and runtime.* metrics are set from the ops' DneStats.
OpPhase RunPartitionOps(double seconds,
                        const std::vector<DneCounts>& reference,
                        const PartitionOp& op, const PartitionCheck& check,
                        Tracer* tracer, RunResult* result);

/// partition.dne.* and runtime.* from the DneStats of the traced ops (or,
/// on the serve workload, of its set-up partitions): medians of the phase
/// times, means of the counts, which repeat exactly within an input.
void SetDneLayerMetrics(const std::vector<dne::DneStats>& runs,
                        RunResult* result);

/// Adds an op span over [start, end] and, under it, the DneStats phase
/// totals laid out back to back from the op's start. They are aggregates
/// over the run's supersteps, not intervals; what they leave uncovered is
/// the op's unaccounted time.
void TracePartitionOp(Tracer* tracer, std::uint64_t op, std::int64_t start,
                      std::int64_t end, const dne::DneStats& stats);

/// Layer times from the recorded spans: the median of each layer span and
/// the op and set-up unaccounted time (their self time). Also prints the
/// per-layer self-time table.
void SetSpanMetrics(const Tracer& tracer, RunResult* result);

/// Traced run only: writes `edges` as a binary-v2 file (graph.save) and
/// reads it back once through OpenEdgeStream (graph.stream_scan).
dne::Status TraceFileRoundTrip(Tracer* tracer, const dne::EdgeList& edges,
                               const std::string& path);

/// One full OpenEdgeStream pass over `path`, in kStreamChunkEdges chunks,
/// traced as graph.stream_scan; returns the edges read.
dne::Status TraceStreamScan(Tracer* tracer, const std::string& path,
                            std::uint64_t* edges_read);

/// Chunk size of every out-of-core read.
inline constexpr std::uint64_t kStreamChunkEdges = 1u << 16;

/// The three workloads.
RunResult RunRmatShmOoc(const RunArgs& args, Tracer* tracer);
RunResult RunRoadInproc(const RunArgs& args, Tracer* tracer);
RunResult RunServeRmatProcess(const RunArgs& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
