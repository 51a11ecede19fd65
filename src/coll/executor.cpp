#include "coll/executor.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/random.hpp"

namespace wrht::coll {

void fill_payload(std::uint64_t seed, NodeId node, std::span<double> row) {
  // Multiplying by an odd constant is a bijection mod 2^64, so distinct
  // nodes get distinct stream seeds under one proof seed.
  util::Rng rng(seed ^ ((std::uint64_t{node} + 1) * 0x9E3779B97F4A7C15ULL));
  for (double& x : row) x = static_cast<double>(rng.next_below(1000));
}

void PayloadArena::reset(std::uint32_t num_nodes, std::size_t payload_len) {
  payload_len_ = payload_len;
  row_of_.assign(num_nodes, kNoRow);
  nodes_.clear();
  data_.clear();
}

void PayloadArena::reset_full(std::uint32_t num_nodes,
                              std::size_t payload_len, std::uint64_t seed) {
  reset(num_nodes, payload_len);
  data_.resize(std::size_t{num_nodes} * payload_len);
  for (NodeId node = 0; node < num_nodes; ++node) {
    row_of_[node] = node;
    nodes_.push_back(node);
    fill_payload(seed, node, row(node));
  }
}

void PayloadArena::add(NodeId node) {
  WRHT_REQUIRE(node < row_of_.size(), "PayloadArena: node "
                                          << node << " out of range [0,"
                                          << row_of_.size() << ")");
  if (row_of_[node] != kNoRow) return;
  row_of_[node] = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(node);
  data_.resize(data_.size() + payload_len_, 0.0);
}

std::size_t PayloadArena::offset(NodeId node) const {
  WRHT_REQUIRE(has(node), "PayloadArena: node " << node << " has no row");
  return std::size_t{row_of_[node]} * payload_len_;
}

std::span<double> PayloadArena::row(NodeId node) {
  return {data_.data() + offset(node), payload_len_};
}

std::span<const double> PayloadArena::row(NodeId node) const {
  return {data_.data() + offset(node), payload_len_};
}

void FunctionalExecutor::run(const Schedule& schedule, PayloadArena& arena) {
  const std::size_t payload_len = arena.payload_len_;
  const std::uint32_t chunks = schedule.num_chunks();
  WRHT_REQUIRE(payload_len >= chunks, "FunctionalExecutor: payload length "
                                          << payload_len << " < num_chunks "
                                          << chunks);
  std::vector<std::size_t>& chunk_begin = arena.chunk_begin_;
  chunk_begin.resize(std::size_t{chunks} + 1);
  for (ChunkId c = 0; c < chunks; ++c) {
    chunk_begin[c] = split_part_offset(payload_len, chunks, c);
  }
  chunk_begin[chunks] = payload_len;

  std::vector<double>& staged = arena.staged_;
  double* const data = arena.data_.data();
  for (const Step& step : schedule.steps()) {
    // Snapshot every sent chunk before mutating anything, so simultaneous
    // exchanges (e.g. recursive doubling pairs) see pre-step values.
    staged.clear();
    for (const Transfer& t : step.transfers) {
      const double* src = data + arena.offset(t.src);
      staged.insert(staged.end(), src + chunk_begin[t.chunk],
                    src + chunk_begin[t.chunk + 1]);
    }

    const double* in = staged.data();
    for (const Transfer& t : step.transfers) {
      double* dst = data + arena.offset(t.dst);
      const std::size_t end = chunk_begin[t.chunk + 1];
      if (t.op == TransferOp::kReduce) {
        for (std::size_t e = chunk_begin[t.chunk]; e < end; ++e) {
          dst[e] += *in++;
        }
      } else {
        for (std::size_t e = chunk_begin[t.chunk]; e < end; ++e) {
          dst[e] = *in++;
        }
      }
    }
  }
}

void FunctionalExecutor::run(const Schedule& schedule,
                             std::vector<std::vector<double>>& node_data) {
  WRHT_REQUIRE(node_data.size() == schedule.num_nodes(),
               "FunctionalExecutor: " << node_data.size()
                                      << " payload vectors for "
                                      << schedule.num_nodes() << " nodes");
  const std::size_t payload_len = node_data.empty() ? 0 : node_data[0].size();
  for (const auto& v : node_data) {
    WRHT_REQUIRE(v.size() == payload_len,
                 "FunctionalExecutor: ragged payload vectors");
  }
  PayloadArena arena;
  arena.reset(schedule.num_nodes(), payload_len);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) arena.add(node);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    std::copy(node_data[node].begin(), node_data[node].end(),
              arena.row(node).begin());
  }
  run(schedule, arena);
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    const std::span<const double> row = std::as_const(arena).row(node);
    std::copy(row.begin(), row.end(), node_data[node].begin());
  }
}

FunctionalExecutor::VerifyResult FunctionalExecutor::verify_allreduce_detailed(
    const Schedule& schedule, std::size_t payload_len, std::uint64_t seed) {
  const std::uint32_t n = schedule.num_nodes();
  PayloadArena arena;
  arena.reset_full(n, payload_len, seed);
  std::vector<double> expected(payload_len, 0.0);
  for (NodeId i = 0; i < n; ++i) {
    const std::span<const double> row = std::as_const(arena).row(i);
    for (std::size_t e = 0; e < payload_len; ++e) expected[e] += row[e];
  }

  run(schedule, arena);

  for (NodeId i = 0; i < n; ++i) {
    const std::span<const double> row = std::as_const(arena).row(i);
    for (std::size_t e = 0; e < payload_len; ++e) {
      if (row[e] != expected[e]) {
        return VerifyResult{
            false, "schedule '" + schedule.name() + "' N=" + std::to_string(n) +
                       ": node " + std::to_string(i) + " element " +
                       std::to_string(e) + " = " + std::to_string(row[e]) +
                       ", expected " + std::to_string(expected[e])};
      }
    }
  }
  return VerifyResult{};
}

bool FunctionalExecutor::verify_allreduce(const Schedule& schedule,
                                          std::size_t payload_len,
                                          std::uint64_t seed) {
  return verify_allreduce_detailed(schedule, payload_len, seed).ok;
}

}  // namespace wrht::coll
