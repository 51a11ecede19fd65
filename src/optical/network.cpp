#include "optical/network.hpp"

#include <algorithm>
#include "util/check.hpp"

namespace wrht::optical {

OpticalRingNetwork::OpticalRingNetwork(std::uint32_t num_nodes,
                                       OpticalParams params)
    : ring_(num_nodes),
      params_(params),
      spectrum_(ring_, params.wdm.num_wavelengths),
      transceivers_(num_nodes) {}

util::Seconds transfer_cost(const OpticalParams& params, const topo::Arc& arc,
                            std::size_t stripes, util::Bytes bytes,
                            bool retuned) {
  util::Seconds duration{0.0};
  if (retuned) {
    duration += params.tune_time + params.transceiver_time;
  }
  duration += params.propagation_per_hop * static_cast<double>(arc.length);
  const util::Bandwidth effective =
      params.wdm.wavelength_bandwidth * static_cast<double>(stripes);
  duration += effective.transfer_time(bytes);
  return duration;
}

StepResult OpticalRingNetwork::execute_step(
    const std::vector<TimedTransfer>& transfers) {
  const util::Seconds step_start = simulator_.now();
  trace_.record(step_start, sim::TraceKind::kStepBegin,
                static_cast<std::int64_t>(step_index_));

  StepResult result;

  // Reserve the spectrum for the whole step; conflicts are schedule bugs.
  for (const TimedTransfer& t : transfers) {
    WRHT_REQUIRE(!t.lambdas.empty(),
                 "OpticalRingNetwork: transfer without wavelength");
    WRHT_REQUIRE(t.arc.length > 0 && t.src != t.dst,
                 "OpticalRingNetwork: degenerate transfer " << t.src << "->"
                                                            << t.dst);
    for (const WavelengthId lambda : t.lambdas) {
      spectrum_.reserve(t.arc, lambda);  // aborts on double-booking
    }
  }

  util::Seconds step_end = step_start;
  for (const TimedTransfer& t : transfers) {
    // A transfer occupies the sender's transmit bank and the receiver's
    // receive bank on the arc's waveguide.  Primary wavelength decides the
    // retune; extra striped wavelengths ride parallel resonators in the
    // same bank and retune concurrently.
    const WavelengthId primary = t.lambdas.front();
    bool retuned = transceivers_.retune_tx(t.src, t.arc.direction, primary);
    retuned |= transceivers_.retune_rx(t.dst, t.arc.direction, primary);
    if (params_.retune_every_step) retuned = true;
    if (retuned) ++result.retunes;

    const util::Seconds duration =
        transfer_cost(params_, t.arc, t.lambdas.size(), t.bytes, retuned);
    const util::Seconds data_time =
        (params_.wdm.wavelength_bandwidth *
         static_cast<double>(t.lambdas.size()))
            .transfer_time(t.bytes);
    result.slowest_data = std::max(result.slowest_data, data_time);
    transfer_times_.record(duration.value());

    const util::Seconds finish = step_start + duration;
    step_end = std::max(step_end, finish);
    spectrum_cell_seconds_ += duration.value() *
                              static_cast<double>(t.lambdas.size()) *
                              static_cast<double>(t.arc.length);

    trace_.record(step_start, sim::TraceKind::kTransferBegin, t.src, t.dst);
    if (retuned) {
      trace_.record(step_start, sim::TraceKind::kTune, t.src,
                    static_cast<std::int64_t>(primary));
    }
    simulator_.schedule_at(finish, [this, t] {
      trace_.record(simulator_.now(), sim::TraceKind::kTransferEnd, t.src,
                    t.dst);
      for (const WavelengthId lambda : t.lambdas) {
        spectrum_.release(t.arc, lambda);
      }
    });
  }

  // The inter-step synchronization gap separates this step from the next.
  step_end += params_.sync_time;
  simulator_.schedule_at(step_end, [this] {
    trace_.record(simulator_.now(), sim::TraceKind::kStepEnd,
                  static_cast<std::int64_t>(step_index_));
  });
  simulator_.run();

  result.duration = step_end - step_start;
  ++step_index_;
  return result;
}

RunResult OpticalRingNetwork::execute_steps(
    const std::vector<std::vector<TimedTransfer>>& steps) {
  RunResult run;
  const util::Seconds start = simulator_.now();
  for (const std::vector<TimedTransfer>& step : steps) {
    const StepResult r = execute_step(step);
    run.total_retunes += r.retunes;
    run.steps.push_back(r);
  }
  run.total = simulator_.now() - start;
  return run;
}

double OpticalRingNetwork::spectrum_utilization() const {
  const double elapsed = simulator_.now().value();
  if (elapsed <= 0.0) return 0.0;
  const double capacity = elapsed *
                          static_cast<double>(params_.wdm.num_wavelengths) *
                          2.0 * static_cast<double>(ring_.num_spans());
  return spectrum_cell_seconds_ / capacity;
}

void OpticalRingNetwork::reset() {
  simulator_ = sim::Simulator();
  spectrum_.clear();
  transceivers_.reset();
  transfer_times_ = sim::Summary();
  trace_.clear();
  step_index_ = 0;
  spectrum_cell_seconds_ = 0.0;
}

}  // namespace wrht::optical
