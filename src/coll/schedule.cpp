#include "coll/schedule.hpp"

#include "util/check.hpp"

namespace wrht::coll {

const char* transfer_op_name(TransferOp op) {
  return op == TransferOp::kReduce ? "reduce" : "copy";
}

Schedule::Schedule(std::string name, std::uint32_t num_nodes,
                   std::uint32_t num_chunks)
    : name_(std::move(name)), num_nodes_(num_nodes), num_chunks_(num_chunks) {
  WRHT_REQUIRE(num_nodes >= 2 && num_chunks > 0,
               "Schedule '" << name_ << "': invalid shape (" << num_nodes
                            << " nodes, " << num_chunks << " chunks)");
}

std::size_t Schedule::total_transfers() const {
  std::size_t n = 0;
  for (const Step& s : steps_) n += s.transfers.size();
  return n;
}

Step& Schedule::add_step() {
  steps_.emplace_back();
  return steps_.back();
}

void Schedule::add_transfer(Transfer t) {
  WRHT_REQUIRE(!steps_.empty(),
               "Schedule '" << name_ << "': add_transfer before add_step");
  WRHT_REQUIRE(t.src < num_nodes_ && t.dst < num_nodes_ &&
                   t.chunk < num_chunks_ && t.src != t.dst,
               "Schedule '" << name_ << "': invalid transfer " << t.src << "->"
                            << t.dst << " chunk " << t.chunk << " (N="
                            << num_nodes_ << ")");
  steps_.back().transfers.push_back(t);
}

util::Bytes Schedule::chunk_bytes(util::Bytes total, ChunkId chunk) const {
  return util::Bytes(split_part_size(total.count(), num_chunks_, chunk));
}

util::Bytes Schedule::total_traffic(util::Bytes payload) const {
  util::Bytes sum;
  for (const Step& step : steps_) {
    for (const Transfer& t : step.transfers) {
      sum += chunk_bytes(payload, t.chunk);
    }
  }
  return sum;
}

std::string Schedule::to_string() const {
  std::string out = "schedule '" + name_ + "' N=" +
                    std::to_string(num_nodes_) +
                    " chunks=" + std::to_string(num_chunks_) + " steps=" +
                    std::to_string(steps_.size()) + "\n";
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    out += "  step " + std::to_string(s) + ":";
    for (const Transfer& t : steps_[s].transfers) {
      out += " ";
      out += std::to_string(t.src);
      out += "->";
      out += std::to_string(t.dst);
      out += "[c";
      out += std::to_string(t.chunk);
      out += ",";
      out += t.op == TransferOp::kReduce ? "R" : "C";
      out += "]";
    }
    out += "\n";
  }
  return out;
}

std::uint64_t split_part_size(std::uint64_t total, std::uint32_t parts,
                              std::uint32_t index) {
  WRHT_REQUIRE(parts > 0 && index < parts,
               "split_part_size: index " << index << " out of " << parts
                                         << " parts");
  const std::uint64_t base = total / parts;
  const std::uint64_t remainder = total % parts;
  return base + (index < remainder ? 1 : 0);
}

std::uint64_t split_part_offset(std::uint64_t total, std::uint32_t parts,
                                std::uint32_t index) {
  WRHT_REQUIRE(parts > 0 && index < parts,
               "split_part_offset: index " << index << " out of " << parts
                                           << " parts");
  const std::uint64_t base = total / parts;
  const std::uint64_t remainder = total % parts;
  const std::uint64_t extra = index < remainder ? index : remainder;
  return base * index + extra;
}

}  // namespace wrht::coll
