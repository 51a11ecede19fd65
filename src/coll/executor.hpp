// Functional executor: runs a Schedule on real payload vectors.
//
// This is the correctness oracle for every algorithm in the repository,
// including Wrht.  Each node holds a payload vector; transfers within a step
// read the *pre-step* values (MPI superstep semantics: all sends of a step
// are posted against the state at the start of the step), then reductions
// and copies are applied.  After a correct all-reduce schedule, every node's
// vector equals the element-wise sum of all initial vectors.
//
// The one superstep kernel runs over a PayloadArena: one flat row per
// materialized node.  A proof only needs rows for the nodes it can observe
// (a node no transfer touches keeps its vector by construction), so the
// arena lets a subset proof on a large ring stay participant-sized.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coll/schedule.hpp"

namespace wrht::coll {

/// The oracles' payload for `node`: fills `row` with small integers
/// (< 1000, so every sum the oracles form is exact in double precision)
/// drawn from a stream keyed by (seed, node).  A row's values depend only
/// on (seed, node, element), never on which other rows a proof
/// materializes — a compact proof and a full-ring proof see the same data.
void fill_payload(std::uint64_t seed, NodeId node, std::span<double> row);

/// Flat payload storage for the superstep kernel: one row of
/// `payload_len()` doubles per materialized node, in the order the nodes
/// were added.  Reusing one arena across proofs keeps a warm proof free of
/// allocation.
class PayloadArena {
 public:
  /// Drops every row and prepares to map nodes [0, num_nodes).
  void reset(std::uint32_t num_nodes, std::size_t payload_len);

  /// reset(), then materializes every node with its fill_payload row.
  void reset_full(std::uint32_t num_nodes, std::size_t payload_len,
                  std::uint64_t seed);

  /// Materializes `node`'s row, zero-filled, unless it already has one.
  /// Invalidates row spans.
  void add(NodeId node);

  [[nodiscard]] bool has(NodeId node) const {
    return node < row_of_.size() && row_of_[node] != kNoRow;
  }
  /// The node's row; the node must have one.
  [[nodiscard]] std::span<double> row(NodeId node);
  [[nodiscard]] std::span<const double> row(NodeId node) const;

  /// Materialized nodes, in row order.
  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }
  [[nodiscard]] std::size_t payload_len() const { return payload_len_; }

 private:
  friend class FunctionalExecutor;
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  [[nodiscard]] std::size_t offset(NodeId node) const;

  std::size_t payload_len_ = 0;
  std::vector<std::uint32_t> row_of_;  // node -> row, kNoRow when absent
  std::vector<NodeId> nodes_;          // row -> node
  std::vector<double> data_;           // rows back to back
  // Kernel scratch, kept with the rows so a reused arena reuses it too.
  std::vector<std::size_t> chunk_begin_;  // num_chunks + 1 element offsets
  std::vector<double> staged_;            // pre-step copies of sent chunks
};

class FunctionalExecutor {
 public:
  /// The superstep kernel: executes `schedule` in place on `arena`.  Every
  /// transfer's src and dst must have a row, and payload_len() must be at
  /// least num_chunks; aborts otherwise.
  static void run(const Schedule& schedule, PayloadArena& arena);

  /// Executes `schedule` in place on `node_data` (one vector per node, all
  /// the same length, length >= num_chunks).  Aborts on shape mismatch.
  static void run(const Schedule& schedule,
                  std::vector<std::vector<double>>& node_data);

  /// Convenience oracle: generates deterministic pseudo-random payloads of
  /// `payload_len` elements (fill_payload), runs the schedule, and returns
  /// true iff every node ends with exactly the element-wise sum (the
  /// payloads are small integers, so the comparison is exact equality).
  [[nodiscard]] static bool verify_allreduce(const Schedule& schedule,
                                             std::size_t payload_len,
                                             std::uint64_t seed = 12345);

  /// Like verify_allreduce but reports the first mismatch found.
  struct VerifyResult {
    bool ok = true;
    std::string message;
  };
  [[nodiscard]] static VerifyResult verify_allreduce_detailed(
      const Schedule& schedule, std::size_t payload_len,
      std::uint64_t seed = 12345);
};

}  // namespace wrht::coll
