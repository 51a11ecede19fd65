#include "elec/schedule_runner.hpp"

#include <utility>

#include "util/check.hpp"

namespace wrht::elec {

void step_flows(const coll::Schedule& schedule, std::size_t step,
                util::Bytes payload, std::vector<StepFlow>& out) {
  out.clear();
  for (const coll::Transfer& t : schedule.steps()[step].transfers) {
    out.push_back(
        StepFlow{t.src, t.dst, schedule.chunk_bytes(payload, t.chunk)});
  }
}

StepFlowTimer::StepFlowTimer(const ElectricalCluster& cluster)
    : cluster_(&cluster), network_(cluster.make_network()) {}

std::optional<util::Seconds> StepFlowTimer::time_step(
    const coll::Schedule& schedule, std::size_t step, util::Bytes payload) {
  if (schedule.num_nodes() > cluster_->num_hosts()) return std::nullopt;
  if (step >= schedule.num_steps()) return std::nullopt;
  step_flows(schedule, step, payload, pending_);
  if (last_makespan_ && pending_ == last_flows_) return last_makespan_;
  // Steps are separated by a barrier, so each runs on a quiet network;
  // resetting between steps keeps memory bounded by one step's flows even
  // for the 2(N-1)-step ring schedules.
  network_.reset();
  for (const StepFlow& flow : pending_) {
    network_.add_flow(cluster_->route(flow.src, flow.dst), flow.bytes);
  }
  ++forward_runs_;
  last_makespan_ = network_.run();
  std::swap(last_flows_, pending_);
  return last_makespan_;
}

ElecRunResult run_on_electrical(const coll::Schedule& schedule,
                                const ElectricalCluster& cluster,
                                util::Bytes payload) {
  WRHT_REQUIRE(schedule.num_nodes() <= cluster.num_hosts(),
               "run_on_electrical: schedule needs "
                   << schedule.num_nodes() << " hosts, cluster has "
                   << cluster.num_hosts());

  ElecRunResult result;
  StepFlowTimer timer(cluster);
  for (std::size_t step = 0; step < schedule.num_steps(); ++step) {
    // time_step refuses oversized schedules (pre-checked above) and
    // out-of-range steps (impossible from this loop), so a nullopt here is
    // a library bug, not a caller error.
    const std::optional<util::Seconds> step_duration =
        timer.time_step(schedule, step, payload);
    WRHT_CHECK(step_duration.has_value(),
               "run_on_electrical: step " << step << " refused");
    result.step_durations.push_back(*step_duration);
    result.total += *step_duration;
  }
  return result;
}

}  // namespace wrht::elec
