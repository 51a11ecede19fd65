// Optical interconnect parameters (TeraRack-style micro-ring resonator ring).
//
// Defaults are calibrated to reproduce the shape of the paper's Figure 2;
// DESIGN.md §3 documents the calibration.  Everything is a plain value so a
// bench can sweep any knob.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace wrht::optical {

/// Wavelength-division multiplexing capability of one waveguide.
struct WdmSpec {
  std::uint32_t num_wavelengths = 64;
  util::Bandwidth wavelength_bandwidth = util::gbps(40.0);
};

struct OpticalParams {
  WdmSpec wdm{};

  /// Micro-ring resonator retuning time, charged whenever an endpoint must
  /// move a transceiver to a different wavelength between steps.  Thermal
  /// tuning of silicon micro-rings settles in the 1-10 ms range;
  /// electro-optic designs reach microseconds (sweep this knob in the
  /// retune_ablation bench).
  util::Seconds tune_time = util::milliseconds(2.5);

  /// Per-step synchronization (the distributed barrier that separates
  /// schedule steps: control-plane arbitration of the shared medium).
  util::Seconds sync_time = util::microseconds(25.0);

  /// Transceiver lock/clock-recovery time after retuning.
  util::Seconds transceiver_time = util::microseconds(25.0);

  /// Propagation delay per ring span (a few meters of fiber/waveguide).
  util::Seconds propagation_per_hop = util::nanoseconds(25.0);

  /// Charge `tune_time` on every step even if the endpoint wavelengths did
  /// not change.  The paper's cost model charges the fixed optical overhead
  /// per step; keep true for reproduction, set false for the ablation that
  /// tracks transceiver state across steps.
  bool retune_every_step = true;

  [[nodiscard]] util::Seconds fixed_step_overhead() const {
    return sync_time + tune_time + transceiver_time;
  }
};

}  // namespace wrht::optical
