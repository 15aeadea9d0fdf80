// The output checks behind ok_frac. Every partition op must pass
// EdgePartition::Validate and reproduce the set-up reference assignment bit
// for bit (the repository's determinism contract across transports and
// thread counts); every query reply must carry the reference answer's bits.
// A shed, a recovery or an error fails the op as well.
#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "apps/serve_server.h"
#include "common/status.h"
#include "graph/graph.h"
#include "partition/dne/dne_options.h"
#include "partition/edge_partition.h"

namespace perfbench {

/// Order-sensitive 64-bit digest of an assignment or a result vector
/// (length included), so two outputs compare by one word.
std::uint64_t Digest(const std::vector<std::uint32_t>& words);
std::uint64_t Digest(const std::vector<std::uint64_t>& words);

/// Validate() against `g`, then the digest against the reference's.
dne::Status CheckPartition(const dne::Graph& g, const dne::EdgePartition& out,
                           std::uint64_t reference_digest);

/// The reply must be OK, recovery-free and carry exactly `reference_bits`.
dne::Status CheckReply(const dne::ServeResponse& resp,
                       const std::vector<std::uint64_t>& reference_bits);

/// The algorithm's counters of one DNE run. They depend only on the graph,
/// P and the seed, so they must repeat exactly across ops and transports.
struct DneCounts {
  std::uint64_t supersteps = 0;
  std::uint64_t one_hop_edges = 0;
  std::uint64_t two_hop_edges = 0;
  std::uint64_t random_restarts = 0;
  std::vector<std::uint64_t> edges_per_partition;
  bool operator==(const DneCounts&) const = default;
};
DneCounts CountsOf(const dne::DneStats& stats);

/// Counts ops attempted and ops that returned OK and passed verification;
/// keeps the first failure for the report.
class OpTally {
 public:
  void Record(const dne::Status& outcome);
  /// Adds another tally's ops; keeps this tally's first failure if any.
  void Add(const OpTally& other);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return attempted_ - ok_; }
  /// ok ÷ attempted; 0 before any op.
  double ok_frac() const;
  const std::string& first_error() const { return first_error_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
  std::string first_error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_VERIFY_H_
