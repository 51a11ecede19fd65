// Ring topology of N nodes connected sequentially, as in TeraRack: node i is
// physically adjacent to node (i+1) mod N.  The optical fabric consists of
// two counter-rotating waveguides; a transfer travels either clockwise
// (increasing indices) or counter-clockwise, passing through the micro-ring
// resonators of intermediate nodes without being dropped.
//
// Terminology used throughout the repo:
//  * span s   — the physical fiber span between node s and node s+1 (mod N).
//  * arc      — a contiguous run of spans traversed in one direction.
//  * distance — number of spans a transfer crosses (= hop count).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace wrht::topo {

using NodeId = std::uint32_t;
using SpanId = std::uint32_t;

enum class Direction : std::uint8_t { kClockwise = 0, kCounterClockwise = 1 };

[[nodiscard]] constexpr Direction opposite(Direction d) {
  return d == Direction::kClockwise ? Direction::kCounterClockwise
                                    : Direction::kClockwise;
}

[[nodiscard]] const char* direction_name(Direction d);

/// A contiguous run of spans on one waveguide.  `first` is the span id at
/// which the arc begins *in traversal order*: a clockwise arc covers spans
/// first, first+1, ..., first+length-1 (mod N); a counter-clockwise arc
/// covers first, first-1, ..., first-length+1 (mod N).
struct Arc {
  Direction direction = Direction::kClockwise;
  SpanId first = 0;
  std::uint32_t length = 0;

  [[nodiscard]] bool empty() const { return length == 0; }
};

/// The spans an arc covers, in traversal order, as a lightweight range:
/// iterating it walks the ring without allocating.
class SpanRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SpanId;
    using difference_type = std::ptrdiff_t;
    using pointer = const SpanId*;
    using reference = SpanId;

    iterator() = default;
    iterator(SpanId span, std::uint32_t index, std::uint32_t num_spans,
             Direction direction)
        : span_(span),
          index_(index),
          num_spans_(num_spans),
          direction_(direction) {}

    SpanId operator*() const { return span_; }
    iterator& operator++() {
      if (direction_ == Direction::kClockwise) {
        span_ = span_ + 1 == num_spans_ ? 0 : span_ + 1;
      } else {
        span_ = span_ == 0 ? num_spans_ - 1 : span_ - 1;
      }
      ++index_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    /// Iterators of one range compare by position along the arc.
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    SpanId span_ = 0;
    std::uint32_t index_ = 0;
    std::uint32_t num_spans_ = 0;
    Direction direction_ = Direction::kClockwise;
  };

  SpanRange(const Arc& arc, std::uint32_t num_spans)
      : arc_(arc), num_spans_(num_spans) {}

  [[nodiscard]] iterator begin() const {
    return {arc_.first, 0, num_spans_, arc_.direction};
  }
  /// One past the last span; its span id is never read.
  [[nodiscard]] iterator end() const {
    return {arc_.first, arc_.length, num_spans_, arc_.direction};
  }
  [[nodiscard]] std::size_t size() const { return arc_.length; }

 private:
  Arc arc_;
  std::uint32_t num_spans_;
};

class RingTopology {
 public:
  explicit RingTopology(std::uint32_t num_nodes);

  [[nodiscard]] std::uint32_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::uint32_t num_spans() const { return num_nodes_; }

  /// Hops from src to dst travelling clockwise (0 when src == dst).
  [[nodiscard]] std::uint32_t distance_cw(NodeId src, NodeId dst) const;
  /// Hops from src to dst in the given direction.
  [[nodiscard]] std::uint32_t distance(NodeId src, NodeId dst,
                                       Direction dir) const;
  /// min over both directions.
  [[nodiscard]] std::uint32_t shortest_distance(NodeId src, NodeId dst) const;
  /// The direction realizing shortest_distance; ties broken clockwise.
  [[nodiscard]] Direction shortest_direction(NodeId src, NodeId dst) const;

  /// The arc a transfer from src to dst occupies in direction `dir`.
  /// Requires src != dst.
  [[nodiscard]] Arc arc(NodeId src, NodeId dst, Direction dir) const;

  /// Span ids covered by an arc, in traversal order (allocation-free).
  [[nodiscard]] SpanRange spans(const Arc& arc) const {
    return SpanRange(arc, num_nodes_);
  }

  /// Whether two arcs share at least one span *on the same waveguide*.
  /// Arcs on opposite directions never conflict (separate waveguides).
  [[nodiscard]] bool arcs_conflict(const Arc& a, const Arc& b) const;

  /// Whether `span` is covered by `arc`.
  [[nodiscard]] bool arc_covers(const Arc& arc, SpanId span) const;

  /// The node reached after `hops` spans from `src` in direction `dir`.
  [[nodiscard]] NodeId advance(NodeId src, std::uint32_t hops,
                               Direction dir) const;

 private:
  void check_node(NodeId node) const;

  std::uint32_t num_nodes_;
};

}  // namespace wrht::topo
