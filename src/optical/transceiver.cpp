#include "optical/transceiver.hpp"

namespace wrht::optical {

TransceiverBank::TransceiverBank(std::uint32_t num_nodes)
    : num_nodes_(num_nodes),
      tx_(std::size_t{2} * num_nodes, kUntuned),
      rx_(std::size_t{2} * num_nodes, kUntuned) {}

std::size_t TransceiverBank::slot(topo::NodeId node,
                                  topo::Direction dir) const {
  return std::size_t{2} * node + static_cast<std::size_t>(dir);
}

bool TransceiverBank::retune_tx(topo::NodeId node, topo::Direction dir,
                                WavelengthId lambda) {
  std::uint32_t& position = tx_[slot(node, dir)];
  if (position == lambda) return false;
  position = lambda;
  ++retunes_;
  return true;
}

bool TransceiverBank::retune_rx(topo::NodeId node, topo::Direction dir,
                                WavelengthId lambda) {
  std::uint32_t& position = rx_[slot(node, dir)];
  if (position == lambda) return false;
  position = lambda;
  ++retunes_;
  return true;
}

void TransceiverBank::reset() {
  tx_.assign(tx_.size(), kUntuned);
  rx_.assign(rx_.size(), kUntuned);
  retunes_ = 0;
}

}  // namespace wrht::optical
