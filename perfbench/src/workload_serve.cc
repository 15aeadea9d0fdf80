// serve-rmat-process: PageRank queries (10 iterations) over the DNE P = 16
// partition of RMAT scale 17, executed by ProcessServeBackend (2 rank
// processes on the socket mesh) behind ServeServer, the shape of
// `dne_cli serve` with the graph resident in the coordinator. Load is a
// closed loop of 2 client threads: each sends its next query when its reply
// arrives, so one query runs while the other waits in the admission queue.
// PageRank does the same work on every query, so latency has one mode.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/serve_server.h"
#include "apps/serve_transport.h"
#include "gen/rmat.h"
#include "graph/graph.h"
#include "harness.h"
#include "metrics/partition_metrics.h"
#include "partition/dne/dne_partitioner.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr int kScale = 17;
constexpr int kEdgeFactor = 8;
constexpr std::uint32_t kPartitions = 16;
constexpr int kPartitionThreads = 2;
constexpr int kRankProcesses = 2;
constexpr int kClients = 2;
constexpr std::uint32_t kIterations = 10;

// Forwards to the process backend and records when each request's Execute
// started and ended, so queue and execute time split from outside the
// server: queue runs from Submit to the start of Execute.
class TimedBackend final : public dne::ServeBackend {
 public:
  explicit TimedBackend(dne::ServeBackend* inner) : inner_(inner) {}

  std::uint64_t num_vertices() const override {
    return inner_->num_vertices();
  }

  dne::Status Execute(const dne::ServeRequest& req,
                      const std::atomic<bool>* cancel,
                      const std::chrono::steady_clock::time_point* deadline,
                      dne::ServeResponse* resp) override {
    const std::int64_t start = NowNs();
    dne::Status st = inner_->Execute(req, cancel, deadline, resp);
    const std::int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    windows_[req.req_id] = {start, end};
    return st;
  }

  /// Removes and returns the Execute window of a finished request.
  std::pair<std::int64_t, std::int64_t> Take(std::uint64_t req_id) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = windows_.find(req_id);
    if (it == windows_.end()) return {0, 0};
    const auto window = it->second;
    windows_.erase(it);
    return window;
  }

 private:
  dne::ServeBackend* const inner_;
  std::mutex mu_;
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> windows_;
};

// Submits `req` and blocks until its reply arrives. A shed returns the
// server's status and no reply.
dne::Status RoundTrip(dne::ServeServer* server, const dne::ServeRequest& req,
                      dne::ServeResponse* reply) {
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    dne::ServeResponse resp;
  };
  auto slot = std::make_shared<Slot>();
  DNE_RETURN_IF_ERROR(
      server->Submit(req, /*deadline_ms=*/0, [slot](dne::ServeResponse r) {
        std::lock_guard<std::mutex> lock(slot->mu);
        slot->resp = std::move(r);
        slot->done = true;
        slot->cv.notify_one();
      }));
  std::unique_lock<std::mutex> lock(slot->mu);
  slot->cv.wait(lock, [&] { return slot->done; });
  *reply = std::move(slot->resp);
  return dne::Status::OK();
}

dne::ServeRequest PageRank(std::uint64_t req_id) {
  dne::ServeRequest req;
  req.req_id = req_id;
  req.algo = dne::ServeAlgo::kPageRank;
  req.iterations = kIterations;
  return req;
}

// One set-up: graph, partition, reference answer, serving stack, first
// query. Members are destroyed bottom-up, so the server drains before the
// backends it borrows go away.
struct ServeSetup {
  dne::Graph g;
  dne::EdgePartition ep;
  dne::PartitionMetrics quality;
  dne::DneStats dne_stats;
  std::vector<std::uint64_t> reference_bits;
  dne::ServeResponse first_reply;
  std::unique_ptr<dne::ProcessServeBackend> backend;
  std::unique_ptr<TimedBackend> timed;
  std::unique_ptr<dne::ServeServer> server;
};

dne::Status SetUp(const InputSeeds& seeds, std::uint64_t id,
                  std::vector<Span>* spans, ServeSetup* s) {
  dne::RmatOptions ro;
  ro.scale = kScale;
  ro.edge_factor = kEdgeFactor;
  ro.seed = seeds.graph;
  dne::EdgeList raw =
      Timed(spans, "gen.generate", id, [&] { return dne::GenerateRmat(ro); });
  s->g = Timed(spans, "graph.build", id,
               [&] { return dne::Graph::Build(std::move(raw)); });

  dne::DneOptions opt;
  opt.seed = seeds.dne;
  opt.num_threads = kPartitionThreads;
  dne::DnePartitioner partitioner(opt);
  DNE_RETURN_IF_ERROR(Timed(spans, "partition.dne.partition", id, [&] {
    return partitioner.Partition(s->g, kPartitions, &s->ep);
  }));
  s->dne_stats = partitioner.dne_stats();
  DNE_RETURN_IF_ERROR(Timed(spans, "metrics.validate", id,
                            [&] { return s->ep.Validate(s->g); }));
  s->quality = Timed(spans, "metrics.quality", id, [&] {
    return dne::ComputePartitionMetrics(s->g, s->ep);
  });

  DNE_RETURN_IF_ERROR(Timed(spans, "apps.serve.reference", id, [&] {
    dne::InProcessServeBackend reference(s->g, s->ep);
    dne::ServeResponse resp;
    dne::Status st = reference.Execute(PageRank(id), nullptr, nullptr, &resp);
    s->reference_bits = std::move(resp.bits);
    return st;
  }));

  dne::ProcessServeOptions popts;
  popts.nproc = kRankProcesses;
  DNE_RETURN_IF_ERROR(popts.Validate());
  s->backend = Timed(spans, "apps.serve.shard_build", id, [&] {
    return std::make_unique<dne::ProcessServeBackend>(s->g, s->ep, popts);
  });
  s->timed = std::make_unique<TimedBackend>(s->backend.get());
  s->server = std::make_unique<dne::ServeServer>(s->timed.get(),
                                                 dne::ServeServerOptions{});
  // The first query launches the rank processes and ships their shards.
  DNE_RETURN_IF_ERROR(Timed(spans, "apps.serve.first_query", id, [&] {
    dne::Status st = RoundTrip(s->server.get(), PageRank(id), &s->first_reply);
    return st.ok() ? CheckReply(s->first_reply, s->reference_bits) : st;
  }));
  s->timed->Take(id);
  return dne::Status::OK();
}

}  // namespace

RunResult RunServeRmatProcess(const RunArgs& args, Tracer* tracer) {
  RunResult result;
  OpPhase ops;
  std::vector<InputSetup> inputs;
  std::vector<dne::DneStats> setup_dne;
  // Per-query counts repeat within an input; the per-layer metrics average
  // them over inputs.
  double supersteps = 0, sync_bytes = 0, wire_bytes = 0, wire_frames = 0;
  std::uint64_t shed = 0;
  std::atomic<std::uint64_t> next_id{kInputs};
  for (int input = 0; input < kInputs; ++input) {
    const auto id = static_cast<std::uint64_t>(input);
    // Set-up: graph, partition, reference answer, serving stack, first
    // query. The inputs run one after another: the previous input's stack
    // is gone, so the rank processes fork from a coordinator holding one
    // graph, as in `dne_cli serve`.
    auto s = std::make_unique<ServeSetup>();
    std::vector<Span> kids;
    const std::int64_t t0 = NowNs();
    const dne::Status st =
        SetUp(SeedsFor(args.seed, input), id, &kids, s.get());
    const std::int64_t t1 = NowNs();
    if (!st.ok()) {
      result.Note("error: set-up: " + st.ToString());
      result.tally.Record(st);
      return result;
    }
    tracer->AddTree({"setup", t0, t1, -1, id, 0}, std::move(kids));
    setup_dne.push_back(s->dne_stats);
    const dne::ServeResponse& expect = s->first_reply;
    supersteps += static_cast<double>(expect.supersteps) / kInputs;
    sync_bytes += static_cast<double>(expect.data_bytes) / kInputs;
    wire_bytes += static_cast<double>(expect.wire_bytes) / kInputs;
    wire_frames += static_cast<double>(expect.wire_frames) / kInputs;
    inputs.push_back({static_cast<double>(t1 - t0) / 1e9,
                      s->quality.replication_factor, s->quality.edge_balance,
                      s->quality.vertex_balance});

    // This input's fifth of the op phase: kClients threads, each with one
    // query outstanding.
    std::mutex log_mu;
    std::int64_t last_reply = 0;
    ResetPeakRss();
    const std::int64_t slice_start = NowNs();
    const std::int64_t deadline =
        slice_start + static_cast<std::int64_t>(args.seconds / kInputs * 1e9);
    const auto client = [&](int lane) {
      for (bool first = true; first || NowNs() < deadline; first = false) {
        const std::uint64_t req_id = next_id.fetch_add(1);
        dne::ServeResponse resp;
        const std::int64_t q0 = NowNs();
        dne::Status qs = RoundTrip(s->server.get(), PageRank(req_id), &resp);
        const std::int64_t q1 = NowNs();
        const auto [exec_start, exec_end] = s->timed->Take(req_id);
        if (qs.ok()) qs = CheckReply(resp, s->reference_bits);
        if (qs.ok() && (resp.supersteps != expect.supersteps ||
                        resp.data_bytes != expect.data_bytes ||
                        resp.wire_bytes != expect.wire_bytes ||
                        resp.wire_frames != expect.wire_frames)) {
          qs = dne::Status::Internal("reply counts differ between queries");
        }
        if (tracer->enabled()) {
          const int op = tracer->Add({"op", q0, q1, -1, req_id, lane});
          tracer->Add({"apps.serve.queue", q0, exec_start, op, req_id, lane});
          tracer->Add({"apps.serve.execute", exec_start, exec_end, op, req_id,
                       lane});
        }
        {
          std::lock_guard<std::mutex> lock(log_mu);
          result.tally.Record(qs);
          if (exec_end != 0) {
            ops.op_s.push_back(static_cast<double>(q1 - q0) / 1e9);
            last_reply = std::max(last_reply, q1);
          }
        }
        if (exec_end == 0) {  // shed: back off as the server asks
          std::this_thread::sleep_for(
              std::chrono::milliseconds(s->server->retry_after_ms()));
        }
      }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c + 1);
    for (std::thread& t : clients) t.join();
    ops.busy_s += static_cast<double>(last_reply - slice_start) / 1e9;
    ops.peak_rss_bytes += static_cast<double>(PeakRssBytes()) / kInputs;
    ops.rank_rss_bytes +=
        static_cast<double>(s->backend->peak_child_rss_bytes()) / kInputs;
    shed += s->server->stats().shed;

    if (tracer->enabled()) {
      const dne::Status rt = TraceFileRoundTrip(tracer, s->g.edges(),
                                                args.work_dir + "/serve.bin");
      if (!rt.ok()) result.Inconsistent("graph file round trip failed");
    }
  }

  SetEndToEndMetrics(ops, inputs, &result);
  char line[256];
  std::snprintf(line, sizeof(line),
                "graph: rmat scale=%d ef=%d, %d inputs, P=%u; pagerank x%u, "
                "%d clients, %d rank processes",
                kScale, kEdgeFactor, kInputs, kPartitions, kIterations,
                kClients, kRankProcesses);
  result.Note(line);
  if (tracer->enabled()) {
    SetDneLayerMetrics(setup_dne, &result);
    result.Set("apps.serve.supersteps", supersteps);
    result.Set("apps.serve.sync_bytes", sync_bytes);
    result.Set("apps.serve.wire_bytes", wire_bytes);
    result.Set("apps.serve.wire_frames", wire_frames);
    result.Set("apps.serve.shed", static_cast<double>(shed));
  }
  return result;
}

}  // namespace perfbench
