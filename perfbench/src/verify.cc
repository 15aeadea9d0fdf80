#include "verify.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

template <typename Word>
std::uint64_t DigestWords(const std::vector<Word>& words) {
  std::uint64_t h = kFnvOffset ^ words.size();
  for (const Word w : words) {
    h = (h ^ static_cast<std::uint64_t>(w)) * kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t Digest(const std::vector<std::uint32_t>& words) {
  return DigestWords(words);
}

std::uint64_t Digest(const std::vector<std::uint64_t>& words) {
  return DigestWords(words);
}

dne::Status CheckPartition(const dne::Graph& g, const dne::EdgePartition& out,
                           std::uint64_t reference_digest) {
  DNE_RETURN_IF_ERROR(out.Validate(g));
  if (Digest(out.assignment()) != reference_digest) {
    return dne::Status::Internal(
        "assignment differs from the set-up reference");
  }
  return dne::Status::OK();
}

dne::Status CheckReply(const dne::ServeResponse& resp,
                       const std::vector<std::uint64_t>& reference_bits) {
  if (!resp.status.ok()) return resp.status;
  if (resp.recoveries != 0) {
    return dne::Status::Internal("reply needed " +
                                 std::to_string(resp.recoveries) +
                                 " rank-failure recoveries");
  }
  if (resp.bits != reference_bits) {
    return dne::Status::Internal(
        "reply bits differ from the in-process reference answer");
  }
  return dne::Status::OK();
}

DneCounts CountsOf(const dne::DneStats& stats) {
  DneCounts c;
  c.supersteps = stats.iterations;
  c.one_hop_edges = stats.one_hop_edges;
  c.two_hop_edges = stats.two_hop_edges;
  c.random_restarts = stats.random_restarts;
  c.edges_per_partition = stats.edges_per_partition;
  return c;
}

void OpTally::Record(const dne::Status& outcome) {
  ++attempted_;
  if (outcome.ok()) {
    ++ok_;
  } else if (first_error_.empty()) {
    first_error_ = outcome.ToString();
  }
}

void OpTally::Add(const OpTally& other) {
  attempted_ += other.attempted_;
  ok_ += other.ok_;
  if (first_error_.empty()) first_error_ = other.first_error_;
}

double OpTally::ok_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(ok_) /
                               static_cast<double>(attempted_);
}

}  // namespace perfbench
