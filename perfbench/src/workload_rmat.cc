// rmat-shm-ooc: the paper's skewed synthetic graph (RMAT scale 18, edge
// factor 8) partitioned into P = 16 out of core. Each op streams the
// canonical binary-v2 file into 2 rank processes on the shared-memory rings,
// checkpoints every 32 supersteps and gathers the assignment.
//
// The graph never lives in the coordinator: a helper process generates and
// builds it, writes the file, computes the in-process reference (2 threads)
// and then stays idle, holding the graph to Validate each op's output. The
// rank processes therefore fork from a lean coordinator, and their peak RSS
// is their own.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/partition_context.h"
#include "gen/rmat.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "harness.h"
#include "metrics/partition_metrics.h"
#include "partition/dne/dne_partitioner.h"
#include "partition/dne/dne_process_transport.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr int kScale = 18;
constexpr int kEdgeFactor = 8;
constexpr std::uint32_t kPartitions = 16;
constexpr int kRankProcesses = 2;
constexpr int kReferenceThreads = 2;
constexpr std::uint32_t kCheckpointEvery = 32;

// Set-up spans the graph holder measures, in the order it runs them.
enum SetupSpan : int {
  kGenerate,
  kBuild,
  kSave,
  kReference,
  kValidate,
  kQuality,
  kNumSetupSpans
};
constexpr const char* kSetupSpanNames[kNumSetupSpans] = {
    "gen.generate",     "graph.build",     "graph.save",
    "partition.dne.reference", "metrics.validate", "metrics.quality"};

// What the graph holder sends once its set-up is done (plain bytes).
struct SetupReport {
  char error[256];  // empty on success
  std::uint64_t num_vertices;
  std::uint64_t num_edges;
  std::uint64_t digest;
  double replication_factor;
  double edge_balance;
  double vertex_balance;
  std::uint64_t supersteps;
  std::uint64_t one_hop_edges;
  std::uint64_t two_hop_edges;
  std::uint64_t random_restarts;
  std::uint64_t edges_per_partition[kPartitions];
  std::int64_t span_start[kNumSetupSpans];
  std::int64_t span_end[kNumSetupSpans];
};

// The graph holder's answer to one verification request.
struct VerifyReply {
  char error[256];  // empty when the assignment passed
  std::int64_t start_ns;
  std::int64_t end_ns;
};

void CopyError(const dne::Status& st, char (&out)[256]) {
  std::snprintf(out, sizeof(out), "%s", st.ToString().c_str());
}

DneCounts ReportCounts(const SetupReport& rep) {
  DneCounts c;
  c.supersteps = rep.supersteps;
  c.one_hop_edges = rep.one_hop_edges;
  c.two_hop_edges = rep.two_hop_edges;
  c.random_restarts = rep.random_restarts;
  c.edges_per_partition.assign(rep.edges_per_partition,
                               rep.edges_per_partition + kPartitions);
  return c;
}

// Body of the graph holder process: set-up, then one Validate + digest per
// assignment the coordinator sends, until it sends a zero length or closes.
int GraphHolder(const std::string& path, std::uint64_t graph_seed,
                std::uint64_t dne_seed, int in_fd, int out_fd) {
  SetupReport rep{};
  const auto fail = [&](const dne::Status& st) {
    CopyError(st, rep.error);
    WriteFull(out_fd, &rep, sizeof(rep));
    return 1;
  };
  const auto begin = [&](SetupSpan s) { rep.span_start[s] = NowNs(); };
  const auto end = [&](SetupSpan s) { rep.span_end[s] = NowNs(); };

  begin(kGenerate);
  dne::RmatOptions ro;
  ro.scale = kScale;
  ro.edge_factor = kEdgeFactor;
  ro.seed = graph_seed;
  dne::EdgeList raw = dne::GenerateRmat(ro);
  end(kGenerate);
  begin(kBuild);
  const dne::Graph g = dne::Graph::Build(std::move(raw));
  end(kBuild);
  begin(kSave);
  dne::Status st = dne::SaveEdgeListBinary(path, g.edges());
  end(kSave);
  if (!st.ok()) return fail(st);

  begin(kReference);
  dne::DneOptions opt;
  opt.seed = dne_seed;
  opt.num_threads = kReferenceThreads;
  dne::DnePartitioner reference(opt);
  dne::EdgePartition ref;
  st = reference.Partition(g, kPartitions, &ref);
  end(kReference);
  if (!st.ok()) return fail(st);
  begin(kValidate);
  st = ref.Validate(g);
  end(kValidate);
  if (!st.ok()) return fail(st);
  begin(kQuality);
  const dne::PartitionMetrics m = dne::ComputePartitionMetrics(g, ref);
  end(kQuality);

  const dne::DneStats& s = reference.dne_stats();
  rep.num_vertices = g.NumVertices();
  rep.num_edges = g.NumEdges();
  rep.digest = Digest(ref.assignment());
  rep.replication_factor = m.replication_factor;
  rep.edge_balance = m.edge_balance;
  rep.vertex_balance = m.vertex_balance;
  rep.supersteps = s.iterations;
  rep.one_hop_edges = s.one_hop_edges;
  rep.two_hop_edges = s.two_hop_edges;
  rep.random_restarts = s.random_restarts;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    rep.edges_per_partition[p] = s.edges_per_partition.at(p);
  }
  if (!WriteFull(out_fd, &rep, sizeof(rep))) return 1;
  ref = dne::EdgePartition();

  for (;;) {
    std::uint64_t n = 0;
    if (!ReadFull(in_fd, &n, sizeof(n)) || n == 0) return 0;
    dne::EdgePartition out(kPartitions, n);
    if (!ReadFull(in_fd, out.mutable_assignment().data(),
                  n * sizeof(dne::PartitionId))) {
      return 1;
    }
    VerifyReply reply{};
    reply.start_ns = NowNs();
    st = CheckPartition(g, out, rep.digest);
    reply.end_ns = NowNs();
    if (!st.ok()) CopyError(st, reply.error);
    if (!WriteFull(out_fd, &reply, sizeof(reply))) return 1;
  }
}

// Sends one op's assignment to the graph holder and returns its verdict;
// traces the holder's Validate span when `tracer` is given.
dne::Status VerifyInHolder(HelperProcess* holder,
                           const dne::EdgePartition& out, Tracer* tracer,
                           std::uint64_t op) {
  const std::uint64_t n = out.num_edges();
  VerifyReply reply{};
  if (!holder->Write(&n, sizeof(n)) ||
      !holder->Write(out.assignment().data(),
                     n * sizeof(dne::PartitionId)) ||
      !holder->Read(&reply, sizeof(reply))) {
    return dne::Status::Internal("graph holder process stopped answering");
  }
  if (tracer != nullptr) {
    tracer->Add({"metrics.validate", reply.start_ns, reply.end_ns, -1, op, 1});
  }
  if (reply.error[0] != '\0') return dne::Status::Internal(reply.error);
  return dne::Status::OK();
}

}  // namespace

RunResult RunRmatShmOoc(const RunArgs& args, Tracer* tracer) {
  RunResult result;
  const std::string ckpt_dir = args.work_dir + "/ckpt";
  // One idle graph holder per input stays up for the round-robin op phase.
  std::vector<std::unique_ptr<HelperProcess>> holders;
  std::vector<dne::DneStreamSpec> specs;
  std::vector<dne::DneOptions> options;
  std::vector<DneCounts> reference;
  std::vector<InputSetup> inputs;
  for (int input = 0; input < kInputs; ++input) {
    const InputSeeds seeds = SeedsFor(args.seed, input);
    const auto id = static_cast<std::uint64_t>(input);
    const std::string path =
        args.work_dir + "/rmat" + std::to_string(input) + ".bin";

    // Set-up: the graph holder builds the graph, file and reference.
    const std::int64_t t0 = NowNs();
    HelperProcess& holder =
        *holders.emplace_back(std::make_unique<HelperProcess>(
            [&](int in_fd, int out_fd) {
              return GraphHolder(path, seeds.graph, seeds.dne, in_fd, out_fd);
            }));
    SetupReport rep{};
    if (!holder.started() || !holder.Read(&rep, sizeof(rep))) {
      result.Note("error: graph holder process failed during set-up");
      result.tally.Record(dne::Status::Internal("set-up failed"));
      return result;
    }
    if (rep.error[0] != '\0') {
      result.Note(std::string("error: set-up: ") + rep.error);
      result.tally.Record(dne::Status::Internal(rep.error));
      return result;
    }
    const std::int64_t t1 = NowNs();
    std::vector<Span> kids;
    for (int s = 0; s < kNumSetupSpans; ++s) {
      kids.push_back({kSetupSpanNames[s], rep.span_start[s], rep.span_end[s],
                      -1, id, 0});
    }
    tracer->AddTree({"setup", t0, t1, -1, id, 0}, std::move(kids));
    inputs.push_back({static_cast<double>(t1 - t0) / 1e9,
                      rep.replication_factor, rep.edge_balance,
                      rep.vertex_balance});
    reference.push_back(ReportCounts(rep));

    dne::DneOptions& opt = options.emplace_back();
    opt.seed = seeds.dne;
    opt.num_threads = 1;
    opt.transport = dne::DneTransport::kShm;
    opt.ranks = kRankProcesses;
    opt.checkpoint_every = kCheckpointEvery;
    opt.max_recoveries = 2;
    std::snprintf(opt.checkpoint_dir, sizeof(opt.checkpoint_dir), "%s",
                  ckpt_dir.c_str());
    dne::DneStreamSpec& spec = specs.emplace_back();
    spec.path = path;
    spec.format = "bin";
    spec.num_vertices = rep.num_vertices;
    spec.num_edges = rep.num_edges;
    spec.chunk_edges = kStreamChunkEdges;
    spec.gather_assignment = true;
  }

  ResetDirectory(ckpt_dir);
  const OpPhase ops = RunPartitionOps(
      args.seconds, reference,
      [&](int input, dne::EdgePartition* out, dne::DneStats* stats) {
        return dne::RunDneProcessTransportStream(
            specs[input], kPartitions, options[input], options[input].seed,
            kRankProcesses, dne::PartitionContext{}, out, stats);
      },
      [&](int input, const dne::EdgePartition& out, Tracer* trace,
          std::uint64_t op) {
        const dne::Status st =
            VerifyInHolder(holders[input].get(), out, trace, op);
        ResetDirectory(ckpt_dir);  // the next op checkpoints afresh
        return st;
      },
      tracer, &result);
  SetEndToEndMetrics(ops, inputs, &result);
  for (std::unique_ptr<HelperProcess>& holder : holders) holder->Finish();

  for (const dne::DneStreamSpec& spec : specs) {
    if (tracer->enabled()) {
      std::uint64_t read = 0;
      const dne::Status st = TraceStreamScan(tracer, spec.path, &read);
      if (!st.ok() || read != spec.num_edges) {
        result.Inconsistent("stream scan of the canonical file failed");
      }
    }
    std::remove(spec.path.c_str());
  }
  const std::uint64_t num_edges = specs.back().num_edges;
  char line[256];
  std::snprintf(line, sizeof(line),
                "graph: rmat scale=%d ef=%d, %d inputs, last |E|=%llu, P=%u; "
                "%.3f Medges/s at op_p50",
                kScale, kEdgeFactor, kInputs,
                static_cast<unsigned long long>(num_edges), kPartitions,
                static_cast<double>(num_edges) / (Median(ops.op_s) * 1e6));
  result.Note(line);
  return result;
}

}  // namespace perfbench
