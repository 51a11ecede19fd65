#include "topo/ring.hpp"

#include "util/check.hpp"

namespace wrht::topo {

const char* direction_name(Direction d) {
  return d == Direction::kClockwise ? "cw" : "ccw";
}

RingTopology::RingTopology(std::uint32_t num_nodes) : num_nodes_(num_nodes) {
  WRHT_REQUIRE(num_nodes >= 2,
               "RingTopology requires >= 2 nodes, got " << num_nodes);
}

void RingTopology::check_node(NodeId node) const {
  WRHT_REQUIRE(node < num_nodes_, "RingTopology: node "
                                      << node << " out of range [0,"
                                      << num_nodes_ << ")");
}

std::uint32_t RingTopology::distance_cw(NodeId src, NodeId dst) const {
  check_node(src);
  check_node(dst);
  return (dst + num_nodes_ - src) % num_nodes_;
}

std::uint32_t RingTopology::distance(NodeId src, NodeId dst,
                                     Direction dir) const {
  return dir == Direction::kClockwise ? distance_cw(src, dst)
                                      : distance_cw(dst, src);
}

std::uint32_t RingTopology::shortest_distance(NodeId src, NodeId dst) const {
  const std::uint32_t cw = distance_cw(src, dst);
  return cw <= num_nodes_ - cw ? cw : num_nodes_ - cw;
}

Direction RingTopology::shortest_direction(NodeId src, NodeId dst) const {
  const std::uint32_t cw = distance_cw(src, dst);
  return cw <= num_nodes_ - cw ? Direction::kClockwise
                               : Direction::kCounterClockwise;
}

Arc RingTopology::arc(NodeId src, NodeId dst, Direction dir) const {
  check_node(src);
  check_node(dst);
  WRHT_REQUIRE(src != dst, "RingTopology::arc: src == dst (" << src << ")");
  const std::uint32_t length = distance(src, dst, dir);
  // Clockwise: the first span leaving src is span `src` (src -> src+1).
  // Counter-clockwise: the first span leaving src is span `src-1`
  // (src -> src-1), traversed in reverse orientation.
  const SpanId first = dir == Direction::kClockwise
                           ? src
                           : (src + num_nodes_ - 1) % num_nodes_;
  return Arc{dir, first, length};
}

bool RingTopology::arc_covers(const Arc& a, SpanId span) const {
  if (a.length == 0) return false;
  if (a.length >= num_nodes_) return true;
  // Normalize the arc to an increasing circular interval of spans.
  const std::uint32_t begin =
      a.direction == Direction::kClockwise
          ? a.first
          : (a.first + num_nodes_ + 1 - a.length) % num_nodes_;
  const std::uint32_t offset = (span + num_nodes_ - begin) % num_nodes_;
  return offset < a.length;
}

bool RingTopology::arcs_conflict(const Arc& a, const Arc& b) const {
  if (a.direction != b.direction) return false;
  if (a.empty() || b.empty()) return false;
  if (a.length >= num_nodes_ || b.length >= num_nodes_) return true;
  // Two circular intervals intersect iff either contains the other's start.
  const auto begin_of = [&](const Arc& x) -> std::uint32_t {
    return x.direction == Direction::kClockwise
               ? x.first
               : (x.first + num_nodes_ + 1 - x.length) % num_nodes_;
  };
  return arc_covers(a, begin_of(b)) || arc_covers(b, begin_of(a));
}

NodeId RingTopology::advance(NodeId src, std::uint32_t hops,
                             Direction dir) const {
  check_node(src);
  const std::uint32_t h = hops % num_nodes_;
  return dir == Direction::kClockwise
             ? (src + h) % num_nodes_
             : (src + num_nodes_ - h) % num_nodes_;
}

}  // namespace wrht::topo
