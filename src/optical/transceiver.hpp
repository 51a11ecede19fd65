// Per-node micro-ring-resonator transceiver state.
//
// Each node carries a transmit and a receive MRR bank per waveguide
// direction.  Moving a bank to a different wavelength costs tune_time; the
// network model consults this state to decide whether a step's transfer pays
// the retuning penalty (unless OpticalParams::retune_every_step forces the
// conservative per-step charge the paper's cost model uses).
#pragma once

#include <cstdint>
#include <vector>

#include "optical/spectrum.hpp"
#include "topo/ring.hpp"

namespace wrht::optical {

class TransceiverBank {
 public:
  explicit TransceiverBank(std::uint32_t num_nodes);

  /// Returns true when the (node, direction) transmitter must retune to use
  /// `lambda`, and records `lambda` as its new position.
  bool retune_tx(topo::NodeId node, topo::Direction dir, WavelengthId lambda);
  /// Same for the receiver bank.
  bool retune_rx(topo::NodeId node, topo::Direction dir, WavelengthId lambda);

  [[nodiscard]] std::uint64_t total_retunes() const { return retunes_; }

  void reset();

 private:
  static constexpr std::uint32_t kUntuned = 0xFFFFFFFFu;
  [[nodiscard]] std::size_t slot(topo::NodeId node, topo::Direction dir) const;

  std::uint32_t num_nodes_;
  std::vector<std::uint32_t> tx_;  // [node * 2 + dir]
  std::vector<std::uint32_t> rx_;
  std::uint64_t retunes_ = 0;
};

}  // namespace wrht::optical
