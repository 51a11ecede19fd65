// Discrete-event simulator of the optical WDM ring.
//
// The network executes *timed steps*: each step is a set of concurrent
// transfers, each pinned to an arc and one or more wavelengths (striping
// over several wavelengths is the Wrht extension).  Per step, every transfer
// pays its fixed optical overheads (tuning, transceiver lock, propagation)
// plus serialization at wavelength bandwidth; the step completes when its
// slowest transfer finishes, plus the inter-step synchronization gap — the
// cost model the paper uses, realized as events on a simulation clock.
//
// The simulator also *enforces* physical feasibility: every (span,
// wavelength, direction) cell is reserved for the duration of the step, so a
// schedule with a wavelength conflict aborts instead of silently timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "optical/params.hpp"
#include "optical/spectrum.hpp"
#include "optical/transceiver.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "topo/ring.hpp"
#include "util/units.hpp"

namespace wrht::optical {

struct TimedTransfer {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  util::Bytes bytes;
  topo::Arc arc;
  /// Wavelengths carrying this transfer; bytes are striped evenly across
  /// them.  Must be non-empty and duplicate-free.
  std::vector<WavelengthId> lambdas;
};

struct StepResult {
  util::Seconds duration;       // makespan of the step incl. sync gap
  util::Seconds slowest_data;   // largest serialization component
  std::uint64_t retunes = 0;    // resonator moves charged this step
};

struct RunResult {
  util::Seconds total;
  std::vector<StepResult> steps;
  std::uint64_t total_retunes = 0;
};

/// Wall time of one transfer of `bytes` striped over `stripes` wavelengths
/// on `arc`, under the paper's cost model: optional retune + transceiver
/// lock, propagation along the arc, serialization at wavelength bandwidth
/// times the stripe count.  Shared by the single-job DES below and the
/// multi-tenant runtime so their timings cannot drift.
[[nodiscard]] util::Seconds transfer_cost(const OpticalParams& params,
                                          const topo::Arc& arc,
                                          std::size_t stripes,
                                          util::Bytes bytes, bool retuned);

class OpticalRingNetwork {
 public:
  OpticalRingNetwork(std::uint32_t num_nodes, OpticalParams params);

  [[nodiscard]] const topo::RingTopology& ring() const { return ring_; }
  [[nodiscard]] const OpticalParams& params() const { return params_; }

  /// Execute one step starting at the current simulated time.
  StepResult execute_step(const std::vector<TimedTransfer>& transfers);

  /// Execute a whole step sequence; returns per-step and total timing.
  RunResult execute_steps(
      const std::vector<std::vector<TimedTransfer>>& steps);

  [[nodiscard]] util::Seconds now() const { return simulator_.now(); }
  [[nodiscard]] const sim::Summary& transfer_times() const {
    return transfer_times_;
  }
  [[nodiscard]] sim::Trace& trace() { return trace_; }

  /// Spectrum hold in cell-seconds: every (span, wavelength) a transfer
  /// reserves, weighted by how long it holds it.  Divided by the total
  /// capacity (elapsed x wavelengths x 2 waveguides x spans) this yields
  /// the fabric utilization — the headroom metric the wavelength_planner
  /// example reports.
  [[nodiscard]] double spectrum_cell_seconds() const {
    return spectrum_cell_seconds_;
  }
  [[nodiscard]] double spectrum_utilization() const;

  /// Restore time zero and untuned transceivers (spectrum is already empty
  /// between steps).
  void reset();

 private:
  topo::RingTopology ring_;
  OpticalParams params_;
  sim::Simulator simulator_;
  SpectrumMap spectrum_;
  TransceiverBank transceivers_;
  sim::Summary transfer_times_;
  sim::Trace trace_;
  std::size_t step_index_ = 0;
  double spectrum_cell_seconds_ = 0.0;
};

}  // namespace wrht::optical
