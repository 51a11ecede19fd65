#include "coll/oracle.hpp"

#include <span>
#include <utility>
#include <vector>

#include "coll/executor.hpp"
#include "util/check.hpp"

namespace wrht::coll {
namespace {

struct ChunkRange {
  std::size_t begin;
  std::size_t end;
};

ChunkRange chunk_range(const Schedule& schedule, std::size_t payload_len,
                       ChunkId chunk) {
  const std::uint64_t offset =
      split_part_offset(payload_len, schedule.num_chunks(), chunk);
  const std::uint64_t size =
      split_part_size(payload_len, schedule.num_chunks(), chunk);
  return ChunkRange{static_cast<std::size_t>(offset),
                    static_cast<std::size_t>(offset + size)};
}

OracleResult mismatch(const Schedule& schedule, const std::string& what,
                      NodeId node, std::size_t element) {
  return OracleResult{
      false, "schedule '" + schedule.name() + "': " + what + " at node " +
                 std::to_string(node) + " element " + std::to_string(element)};
}

/// Element-wise sum of every row.
std::vector<double> column_sums(const PayloadArena& data) {
  std::vector<double> sums(data.payload_len(), 0.0);
  for (const NodeId node : data.nodes()) {
    const std::span<const double> row = data.row(node);
    for (std::size_t e = 0; e < sums.size(); ++e) sums[e] += row[e];
  }
  return sums;
}

/// Per-thread proof scratch, reused so a warm subset proof does not
/// allocate.
struct ProofScratch {
  PayloadArena data;
  std::vector<std::uint8_t> role;  // per node: kContributor | kRecipient
  std::vector<double> expected;
  std::vector<double> initial;  // one regenerated row
};

constexpr std::uint8_t kContributor = 1;
constexpr std::uint8_t kRecipient = 2;

// Both verify_allreduce_among overloads.  Only the rows the proof can
// observe are materialized: the contributors (recipients are a subset) and
// every transfer's endpoints.  That is exactly as strong as a full-ring
// proof: a node outside that set is written by no transfer, so it keeps
// its initial vector by construction, and fill_payload gives every
// materialized row the values the full ring would hold.
OracleResult prove_allreduce_among(const Schedule& schedule,
                                   const std::vector<NodeId>& contributors,
                                   const std::vector<NodeId>& recipients,
                                   std::size_t payload_len,
                                   std::uint64_t seed, const char* member,
                                   const char* what) {
  thread_local ProofScratch scratch;
  const std::uint32_t n = schedule.num_nodes();
  std::vector<std::uint8_t>& role = scratch.role;
  role.assign(n, 0);
  for (const NodeId node : contributors) {
    WRHT_REQUIRE(node < n, "Oracle: " << member << " " << node
                                      << " out of range [0," << n << ")");
    WRHT_REQUIRE((role[node] & kContributor) == 0,
                 "Oracle: " << member << " " << node << " listed twice");
    role[node] |= kContributor;
  }
  for (const NodeId node : recipients) {
    WRHT_REQUIRE(node < n, "Oracle: recipient " << node << " out of range [0,"
                                                << n << ")");
    WRHT_REQUIRE((role[node] & kContributor) != 0,
                 "Oracle: recipient " << node << " is not a contributor");
    role[node] |= kRecipient;
  }

  PayloadArena& data = scratch.data;
  data.reset(n, payload_len);
  for (const NodeId node : contributors) data.add(node);
  for (const Step& step : schedule.steps()) {
    for (const Transfer& t : step.transfers) {
      data.add(t.src);
      data.add(t.dst);
    }
  }
  for (const NodeId node : data.nodes()) {
    fill_payload(seed, node, data.row(node));
  }
  std::vector<double>& expected = scratch.expected;
  expected.assign(payload_len, 0.0);
  for (const NodeId node : contributors) {
    const std::span<const double> row = std::as_const(data).row(node);
    for (std::size_t e = 0; e < payload_len; ++e) expected[e] += row[e];
  }

  FunctionalExecutor::run(schedule, data);

  // Node order, so the first mismatch reported is the full-ring proof's.
  std::vector<double>& initial = scratch.initial;
  initial.resize(payload_len);
  for (NodeId node = 0; node < n; ++node) {
    if (!data.has(node)) continue;  // untouched by construction
    const std::span<const double> row = std::as_const(data).row(node);
    if ((role[node] & kRecipient) != 0) {
      for (std::size_t e = 0; e < payload_len; ++e) {
        if (row[e] != expected[e]) return mismatch(schedule, what, node, e);
      }
    } else if ((role[node] & kContributor) == 0) {
      fill_payload(seed, node, initial);
      for (std::size_t e = 0; e < payload_len; ++e) {
        if (row[e] != initial[e]) {
          return mismatch(schedule, "non-participant was written", node, e);
        }
      }
    }
    // Evicted contributors (contributor, not recipient): unspecified.
  }
  return OracleResult{};
}

}  // namespace

OracleResult Oracle::verify_broadcast(const Schedule& schedule, NodeId root,
                                      std::size_t payload_len,
                                      std::uint64_t seed) {
  PayloadArena data;
  data.reset_full(schedule.num_nodes(), payload_len, seed);
  const std::span<const double> root_row = std::as_const(data).row(root);
  const std::vector<double> expected(root_row.begin(), root_row.end());
  FunctionalExecutor::run(schedule, data);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    const std::span<const double> row = std::as_const(data).row(node);
    for (std::size_t e = 0; e < payload_len; ++e) {
      if (row[e] != expected[e]) {
        return mismatch(schedule, "broadcast mismatch", node, e);
      }
    }
  }
  return OracleResult{};
}

OracleResult Oracle::verify_reduce(const Schedule& schedule, NodeId root,
                                   std::size_t payload_len,
                                   std::uint64_t seed) {
  PayloadArena data;
  data.reset_full(schedule.num_nodes(), payload_len, seed);
  const std::vector<double> expected = column_sums(data);
  FunctionalExecutor::run(schedule, data);
  const std::span<const double> row = std::as_const(data).row(root);
  for (std::size_t e = 0; e < payload_len; ++e) {
    if (row[e] != expected[e]) {
      return mismatch(schedule, "reduce mismatch", root, e);
    }
  }
  return OracleResult{};
}

OracleResult Oracle::verify_scatter(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len,
                                    std::uint64_t seed) {
  PayloadArena data;
  data.reset_full(schedule.num_nodes(), payload_len, seed);
  const PayloadArena initial = data;
  FunctionalExecutor::run(schedule, data);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    const ChunkRange r = chunk_range(schedule, payload_len, node);
    for (std::size_t e = r.begin; e < r.end; ++e) {
      if (data.row(node)[e] != initial.row(root)[e]) {
        return mismatch(schedule, "scatter mismatch", node, e);
      }
    }
  }
  return OracleResult{};
}

OracleResult Oracle::verify_gather(const Schedule& schedule, NodeId root,
                                   std::size_t payload_len,
                                   std::uint64_t seed) {
  PayloadArena data;
  data.reset_full(schedule.num_nodes(), payload_len, seed);
  const PayloadArena initial = data;
  FunctionalExecutor::run(schedule, data);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    const ChunkRange r = chunk_range(schedule, payload_len, node);
    for (std::size_t e = r.begin; e < r.end; ++e) {
      if (data.row(root)[e] != initial.row(node)[e]) {
        return mismatch(schedule, "gather mismatch", node, e);
      }
    }
  }
  return OracleResult{};
}

OracleResult Oracle::verify_allgather(const Schedule& schedule,
                                      std::size_t payload_len,
                                      std::uint64_t seed) {
  PayloadArena data;
  data.reset_full(schedule.num_nodes(), payload_len, seed);
  const PayloadArena initial = data;
  FunctionalExecutor::run(schedule, data);
  for (NodeId owner = 0; owner < schedule.num_nodes(); ++owner) {
    const ChunkRange r = chunk_range(schedule, payload_len, owner);
    for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
      for (std::size_t e = r.begin; e < r.end; ++e) {
        if (data.row(node)[e] != initial.row(owner)[e]) {
          return mismatch(schedule, "allgather mismatch", node, e);
        }
      }
    }
  }
  return OracleResult{};
}

OracleResult Oracle::verify_reduce_scatter(const Schedule& schedule,
                                           std::size_t payload_len,
                                           std::uint64_t seed) {
  PayloadArena data;
  data.reset_full(schedule.num_nodes(), payload_len, seed);
  const std::vector<double> expected = column_sums(data);
  FunctionalExecutor::run(schedule, data);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    const ChunkRange r = chunk_range(schedule, payload_len, node);
    for (std::size_t e = r.begin; e < r.end; ++e) {
      if (data.row(node)[e] != expected[e]) {
        return mismatch(schedule, "reduce-scatter mismatch", node, e);
      }
    }
  }
  return OracleResult{};
}

OracleResult Oracle::verify_allreduce_among(
    const Schedule& schedule, const std::vector<NodeId>& participants,
    std::size_t payload_len, std::uint64_t seed) {
  return prove_allreduce_among(schedule, participants, participants,
                               payload_len, seed, "participant",
                               "subset all-reduce mismatch");
}

OracleResult Oracle::verify_allreduce_among(
    const Schedule& schedule, const std::vector<NodeId>& contributors,
    const std::vector<NodeId>& recipients, std::size_t payload_len,
    std::uint64_t seed) {
  return prove_allreduce_among(schedule, contributors, recipients,
                               payload_len, seed, "contributor",
                               "survivor all-reduce mismatch");
}

}  // namespace wrht::coll
