// Correctness oracles for every collective primitive: each initializes real
// payload vectors (coll::fill_payload, one stream per node), executes the
// schedule with the FunctionalExecutor, and compares the outcome against
// the mathematical definition of the collective.  Small-integer payloads
// keep double arithmetic exact, so all comparisons are equality, not
// tolerance.  The subset all-reduce proofs materialize only the rows they
// can observe, so their cost follows the participants, not the ring.
#pragma once

#include <cstdint>
#include <string>

#include "coll/schedule.hpp"

namespace wrht::coll {

struct OracleResult {
  bool ok = true;
  std::string message;
};

class Oracle {
 public:
  /// Every node ends with the root's initial vector.
  static OracleResult verify_broadcast(const Schedule& schedule, NodeId root,
                                       std::size_t payload_len,
                                       std::uint64_t seed = 1);

  /// The root ends with the element-wise sum of all initial vectors
  /// (other nodes' final contents are unspecified).
  static OracleResult verify_reduce(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len,
                                    std::uint64_t seed = 2);

  /// Node i ends with the root's chunk i (chunks = N).
  static OracleResult verify_scatter(const Schedule& schedule, NodeId root,
                                     std::size_t payload_len,
                                     std::uint64_t seed = 3);

  /// The root's chunk i ends equal to node i's initial chunk i.
  static OracleResult verify_gather(const Schedule& schedule, NodeId root,
                                    std::size_t payload_len,
                                    std::uint64_t seed = 4);

  /// Every node's chunk i ends equal to node i's initial chunk i.
  static OracleResult verify_allgather(const Schedule& schedule,
                                       std::size_t payload_len,
                                       std::uint64_t seed = 5);

  /// Node i's chunk i ends equal to the sum over nodes of initial chunk i.
  static OracleResult verify_reduce_scatter(const Schedule& schedule,
                                            std::size_t payload_len,
                                            std::uint64_t seed = 6);

  /// All-reduce restricted to a subset: every participant ends with the
  /// element-wise sum over the participants' initial vectors, and every
  /// non-participant's vector is untouched (elastic-membership schedules).
  /// Participants must be distinct nodes of the schedule; aborts otherwise.
  ///
  /// Rows are materialized for the participants and every transfer's src
  /// and dst only; a node no transfer touches is untouched by construction.
  static OracleResult verify_allreduce_among(
      const Schedule& schedule, const std::vector<NodeId>& participants,
      std::size_t payload_len, std::uint64_t seed = 7);

  /// Fault variant: the sum is taken over `contributors`, but only
  /// `recipients` (a subset of the contributors — the survivors of a
  /// mid-flight eviction) must end holding it.  Nodes outside the
  /// contributor set must be untouched; evicted contributors' final state
  /// is unspecified (their hardware is gone).  Contributors must be distinct
  /// nodes of the schedule and every recipient a contributor; aborts
  /// otherwise.
  static OracleResult verify_allreduce_among(
      const Schedule& schedule, const std::vector<NodeId>& contributors,
      const std::vector<NodeId>& recipients, std::size_t payload_len,
      std::uint64_t seed = 7);
};

}  // namespace wrht::coll
