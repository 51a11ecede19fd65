// Executes a collective Schedule on an electrical cluster with the flow
// simulator: each schedule step becomes a batch of concurrent flows; the
// step's duration is the batch makespan under max-min fair sharing, and
// steps are separated by a synchronization barrier (the next step's flows
// start only when the previous step fully completes — BSP semantics, the
// same model the optical side uses).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "coll/schedule.hpp"
#include "elec/topology.hpp"
#include "util/units.hpp"

namespace wrht::elec {

struct ElecRunResult {
  util::Seconds total;
  std::vector<util::Seconds> step_durations;
};

/// One flow of a schedule step: its host pair and its share of the payload.
/// The cluster's route table turns the pair into links, so for a fixed
/// cluster the ordered list of these is everything a flow run reads.
struct StepFlow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  util::Bytes bytes;
  friend bool operator==(const StepFlow&, const StepFlow&) = default;
};

/// Replace `out` with the flows of `schedule` step `step` for `payload`, in
/// transfer order, each sized by the schedule's chunk split.
void step_flows(const coll::Schedule& schedule, std::size_t step,
                util::Bytes payload, std::vector<StepFlow>& out);

/// Incremental per-step seam: times one schedule step at a time, so a
/// runtime can interleave electrical steps with other tenants' events on a
/// shared clock instead of committing to a whole schedule up front.  Reuses
/// one FlowNetwork across calls (reset before each step — the same
/// quiet-network-per-step construction run_on_electrical uses, and
/// run_on_electrical is itself implemented on this timer, so per-step and
/// whole-schedule timings agree by construction).  `cluster` must outlive
/// the timer.
///
/// A quiet step's makespan is a pure function of its ordered flow list, so
/// the timer remembers the last list it ran and its makespan: asking again
/// for the identical list — the routing probe's step-0 baseline that the
/// placed execution's first step asks for straight after, or a repeated
/// step — returns the remembered value with no forward run.  Any other
/// list (one byte, one endpoint, or the order differing) runs afresh.
class StepFlowTimer {
 public:
  explicit StepFlowTimer(const ElectricalCluster& cluster);

  /// BSP makespan of `schedule` step `step` for `payload` under max-min
  /// fair sharing on a quiet network.  An out-of-range step or a schedule
  /// needing more hosts than the cluster has is rejected with nullopt (the
  /// timer state is untouched), so callers driving tenant-supplied
  /// schedules can surface the error on their own terms.
  [[nodiscard]] std::optional<util::Seconds> time_step(
      const coll::Schedule& schedule, std::size_t step, util::Bytes payload);

  /// Flow runs performed so far (a remembered answer adds nothing).  A
  /// deterministic work counter.
  [[nodiscard]] std::uint64_t forward_runs() const { return forward_runs_; }

 private:
  const ElectricalCluster* cluster_;
  FlowNetwork network_;
  /// The flow list of the last run step and its makespan; `pending_` is the
  /// request being compared against it (swapped in on a miss).
  std::vector<StepFlow> last_flows_;
  std::optional<util::Seconds> last_makespan_;
  std::vector<StepFlow> pending_;
  std::uint64_t forward_runs_ = 0;
};

[[nodiscard]] ElecRunResult run_on_electrical(const coll::Schedule& schedule,
                                              const ElectricalCluster& cluster,
                                              util::Bytes payload);

}  // namespace wrht::elec
