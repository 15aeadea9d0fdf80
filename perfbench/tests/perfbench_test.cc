// Tests of the benchmark itself: its statistics, its output verification
// and its agreement with BENCHMARK.json.
#include <cmath>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/serve_server.h"
#include "gen/rmat.h"
#include "graph/graph.h"
#include "harness.h"
#include "partition/dne/dne_partitioner.h"
#include "stats.h"
#include "trace.h"
#include "verify.h"

namespace perfbench {
namespace {

std::vector<double> Range(int lo, int hi) {
  std::vector<double> xs;
  for (int i = lo; i <= hi; ++i) xs.push_back(i);
  return xs;
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(Stats, QuantileInterpolatesLinearly) {
  const std::vector<double> xs = Range(1, 100);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 100.0);
  EXPECT_NEAR(Quantile(xs, 0.9), 90.1, 1e-12);
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  // 1..100: p90 = 90.1 with exactly ten samples (91..100) above it.
  const std::vector<double> hundred = Range(1, 100);
  EXPECT_EQ(CountAbove(hundred, Quantile(hundred, 0.9)), 10u);
  ASSERT_TRUE(TailQuantile(hundred, 0.9).has_value());
  EXPECT_NEAR(*TailQuantile(hundred, 0.9), 90.1, 1e-12);
  // 1..90: p90 = 81.1 with nine samples above it, too few for a tail.
  const std::vector<double> ninety = Range(1, 90);
  EXPECT_EQ(CountAbove(ninety, Quantile(ninety, 0.9)), 9u);
  EXPECT_FALSE(TailQuantile(ninety, 0.9).has_value());
  EXPECT_FALSE(TailQuantile({}, 0.9).has_value());
  // Ties at the percentile do not count as beyond it.
  std::vector<double> flat(200, 5.0);
  EXPECT_FALSE(TailQuantile(flat, 0.9).has_value());
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans;
  spans.push_back({"op", 0, 100, -1, 1, 1});
  spans.push_back({"a", 10, 30, 0, 1, 1});
  spans.push_back({"b", 20, 50, 0, 1, 1});   // overlaps a
  spans.push_back({"c", 90, 130, 0, 1, 1});  // runs past the parent
  spans.push_back({"d", 40, 45, 2, 1, 1});   // grandchild: not op's child
  const std::vector<double> self = SelfSeconds(spans);
  EXPECT_NEAR(self[0], 50e-9, 1e-15);  // 100 - [10,50) - [90,100)
  EXPECT_NEAR(self[2], 25e-9, 1e-15);
  EXPECT_EQ(DurationsOf(spans, "a").size(), 1u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer off(false);
  EXPECT_EQ(off.Add({"x", 0, 1, -1, 0, 0}), -1);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  EXPECT_EQ(on.Add({"x", 0, 1, -1, 0, 0}), 0);
  EXPECT_NE(on.ChromeJson("{}").find("\"name\":\"x\""), std::string::npos);
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dne::RmatOptions ro;
    ro.scale = 9;
    ro.edge_factor = 8;
    ro.seed = 3;
    g_ = dne::Graph::Build(dne::GenerateRmat(ro));
    dne::DnePartitioner dne;
    ASSERT_TRUE(dne.Partition(g_, 4, &reference_).ok());
    digest_ = Digest(reference_.assignment());
  }

  dne::Graph g_;
  dne::EdgePartition reference_;
  std::uint64_t digest_ = 0;
};

TEST_F(VerifyTest, CorruptedAssignmentLowersOkFrac) {
  OpTally tally;
  tally.Record(CheckPartition(g_, reference_, digest_));
  EXPECT_DOUBLE_EQ(tally.ok_frac(), 1.0);

  // Valid partition ids, different assignment: Validate passes, the digest
  // does not.
  dne::EdgePartition moved = reference_;
  moved.Set(0, (moved.Get(0) + 1) % moved.num_partitions());
  EXPECT_TRUE(moved.Validate(g_).ok());
  tally.Record(CheckPartition(g_, moved, digest_));
  // An unassigned edge fails Validate.
  dne::EdgePartition holed = reference_;
  holed.Set(g_.NumEdges() - 1, dne::kNoPartition);
  tally.Record(CheckPartition(g_, holed, digest_));

  EXPECT_EQ(tally.attempted(), 3u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.ok_frac(), 1.0 / 3.0);
  EXPECT_FALSE(tally.first_error().empty());
}

TEST(Verify, CorruptedReplyLowersOkFrac) {
  const std::vector<std::uint64_t> reference = {1, 2, 3, 4};
  dne::ServeResponse good;
  good.bits = reference;
  OpTally tally;
  tally.Record(CheckReply(good, reference));

  dne::ServeResponse flipped = good;
  flipped.bits[2] ^= 1;
  tally.Record(CheckReply(flipped, reference));
  dne::ServeResponse recovered = good;
  recovered.recoveries = 1;
  tally.Record(CheckReply(recovered, reference));
  dne::ServeResponse shed = good;
  shed.status = dne::Status::Unavailable("shed");
  tally.Record(CheckReply(shed, reference));

  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 3u);
  EXPECT_DOUBLE_EQ(tally.ok_frac(), 0.25);
}

TEST(Verify, DigestSeesOrderAndLength) {
  EXPECT_NE(Digest(std::vector<std::uint32_t>{1, 2}),
            Digest(std::vector<std::uint32_t>{2, 1}));
  EXPECT_NE(Digest(std::vector<std::uint32_t>{0}),
            Digest(std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(Digest(std::vector<std::uint64_t>{7, 8}),
            Digest(std::vector<std::uint64_t>{7, 8}));
}

// The shared partition op loop: one full round-robin pass at least, and
// every op failing a check lowers ok_frac.
TEST(Harness, PartitionOpsRunRoundRobinAndCountFailedChecks) {
  dne::DneStats good;
  good.iterations = 7;
  good.edges_per_partition = {3, 4};
  const std::vector<DneCounts> reference(3, CountsOf(good));
  std::vector<int> order;
  Tracer off(false);
  RunResult result;
  const OpPhase phase = RunPartitionOps(
      /*seconds=*/0.0, reference,
      [&](int input, dne::EdgePartition*, dne::DneStats* stats) {
        order.push_back(input);
        *stats = good;
        if (input == 1) stats->iterations = 8;  // counts off the reference
        return dne::Status::OK();
      },
      [](int input, const dne::EdgePartition&, Tracer*, std::uint64_t) {
        return input == 2 ? dne::Status::Internal("corrupted")
                          : dne::Status::OK();
      },
      &off, &result);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(phase.op_s.size(), 3u);
  EXPECT_EQ(phase.input_p50_s.size(), 3u);
  EXPECT_EQ(result.tally.attempted(), 3u);
  EXPECT_EQ(result.tally.failed(), 2u);
  EXPECT_GT(phase.rank_rss_bytes, 0.0);  // threads: the benchmark process
}

TEST(Harness, PartitionOpsFailWhenRuntimeCountsDrift) {
  dne::DneStats good;
  good.iterations = 7;
  const std::vector<DneCounts> reference(2, CountsOf(good));
  std::uint64_t calls = 0;
  Tracer off(false);
  RunResult result;
  RunPartitionOps(
      /*seconds=*/0.05, reference,
      [&](int, dne::EdgePartition*, dne::DneStats* stats) {
        *stats = good;
        stats->wire_bytes = ++calls == 4 ? 1 : 0;  // input 1's second op
        return dne::Status::OK();
      },
      [](int, const dne::EdgePartition&, Tracer*, std::uint64_t) {
        return dne::Status::OK();
      },
      &off, &result);
  EXPECT_GE(calls, 4u);
  EXPECT_EQ(result.tally.attempted(), calls);
  EXPECT_EQ(result.tally.failed(), 1u);
}

// Serve queries have a tail; partition ops take op_p90_ms over the inputs'
// medians instead.
TEST(Harness, OpP90IsTheTailOrTheInputMediansP90) {
  OpPhase queries;
  queries.op_s = Range(1, 100);
  queries.busy_s = 50.0;
  RunResult serve;
  SetEndToEndMetrics(queries, {InputSetup{}}, &serve);
  EXPECT_NEAR(serve.values["op_p50_ms"], 50.5e3, 1e-6);
  EXPECT_NEAR(serve.values["op_p90_ms"], 90.1e3, 1e-6);
  EXPECT_DOUBLE_EQ(serve.values["queries_per_s"], 2.0);

  OpPhase partitions = queries;
  partitions.input_p50_s = {1.0, 2.0, 3.0, 4.0, 5.0};
  RunResult partition;
  SetEndToEndMetrics(partitions, {InputSetup{}}, &partition);
  EXPECT_NEAR(partition.values["op_p50_ms"], 50.5e3, 1e-6);
  EXPECT_NEAR(partition.values["op_p90_ms"], 4.6e3, 1e-6);
}

TEST(Harness, SeedsDifferByPurposeAndRepeat) {
  EXPECT_EQ(DeriveSeed(5, 1), DeriveSeed(5, 1));
  EXPECT_NE(DeriveSeed(5, 1), DeriveSeed(5, 2));
  EXPECT_NE(DeriveSeed(5, 1), DeriveSeed(6, 1));
  EXPECT_NE(DeriveSeed(0, 0), 0u);
}

// The metrics the binary prints are exactly BENCHMARK.json's, in order.
TEST(Harness, MetricListsMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto section = [&](const std::string& key) {
    const std::size_t begin = text.find("\"" + key + "\"");
    const std::size_t end = text.find(']', begin);
    std::vector<std::pair<std::string, std::string>> out;
    const std::regex metric(
        R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
    const std::string body = text.substr(begin, end - begin);
    for (auto it = std::sregex_iterator(body.begin(), body.end(), metric);
         it != std::sregex_iterator(); ++it) {
      out.emplace_back((*it)[1], (*it)[2]);
    }
    return out;
  };
  const auto expect_same = [](const std::vector<MetricSpec>& specs,
                              const std::vector<std::pair<std::string,
                                                          std::string>>& got) {
    ASSERT_EQ(specs.size(), got.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(specs[i].name, got[i].first);
      EXPECT_EQ(specs[i].unit, got[i].second);
    }
  };
  expect_same(EndToEndMetrics(), section("end_to_end"));
  expect_same(PerLayerMetrics(), section("per_layer"));
}

}  // namespace
}  // namespace perfbench
