#include "topo/ring.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace wrht::topo {
namespace {

/// The span ids of `arc`, materialized for comparison.
std::vector<SpanId> span_list(const RingTopology& ring, const Arc& arc) {
  const SpanRange spans = ring.spans(arc);
  return {spans.begin(), spans.end()};
}

TEST(Ring, Distances) {
  const RingTopology ring(8);
  EXPECT_EQ(ring.distance_cw(0, 3), 3u);
  EXPECT_EQ(ring.distance_cw(3, 0), 5u);
  EXPECT_EQ(ring.distance_cw(5, 5), 0u);
  EXPECT_EQ(ring.distance(0, 3, Direction::kCounterClockwise), 5u);
  EXPECT_EQ(ring.shortest_distance(0, 3), 3u);
  EXPECT_EQ(ring.shortest_distance(0, 5), 3u);
  EXPECT_EQ(ring.shortest_distance(0, 4), 4u);
}

TEST(Ring, ShortestDirectionTieBreaksClockwise) {
  const RingTopology ring(8);
  EXPECT_EQ(ring.shortest_direction(0, 3), Direction::kClockwise);
  EXPECT_EQ(ring.shortest_direction(0, 5), Direction::kCounterClockwise);
  // Exactly opposite: tie, clockwise wins.
  EXPECT_EQ(ring.shortest_direction(0, 4), Direction::kClockwise);
}

TEST(Ring, ClockwiseArcSpans) {
  const RingTopology ring(8);
  const Arc arc = ring.arc(2, 5, Direction::kClockwise);
  EXPECT_EQ(arc.length, 3u);
  EXPECT_EQ(span_list(ring, arc), (std::vector<SpanId>{2, 3, 4}));
}

TEST(Ring, CounterClockwiseArcSpans) {
  const RingTopology ring(8);
  const Arc arc = ring.arc(2, 7, Direction::kCounterClockwise);
  EXPECT_EQ(arc.length, 3u);
  // Travelling 2 -> 1 -> 0 -> 7 uses spans 1, 0, 7 in that order.
  EXPECT_EQ(span_list(ring, arc), (std::vector<SpanId>{1, 0, 7}));
}

TEST(Ring, WrappingClockwiseArc) {
  const RingTopology ring(8);
  const Arc arc = ring.arc(6, 1, Direction::kClockwise);
  EXPECT_EQ(arc.length, 3u);
  EXPECT_EQ(span_list(ring, arc), (std::vector<SpanId>{6, 7, 0}));
}

TEST(Ring, ArcCovers) {
  const RingTopology ring(8);
  const Arc arc = ring.arc(6, 1, Direction::kClockwise);  // spans 6,7,0
  EXPECT_TRUE(ring.arc_covers(arc, 6));
  EXPECT_TRUE(ring.arc_covers(arc, 7));
  EXPECT_TRUE(ring.arc_covers(arc, 0));
  EXPECT_FALSE(ring.arc_covers(arc, 1));
  EXPECT_FALSE(ring.arc_covers(arc, 5));
}

TEST(Ring, ArcCoversCounterClockwise) {
  const RingTopology ring(8);
  const Arc arc = ring.arc(2, 7, Direction::kCounterClockwise);  // 1,0,7
  EXPECT_TRUE(ring.arc_covers(arc, 1));
  EXPECT_TRUE(ring.arc_covers(arc, 0));
  EXPECT_TRUE(ring.arc_covers(arc, 7));
  EXPECT_FALSE(ring.arc_covers(arc, 2));
  EXPECT_FALSE(ring.arc_covers(arc, 6));
}

TEST(Ring, ConflictRequiresSameDirection) {
  const RingTopology ring(8);
  const Arc cw = ring.arc(0, 4, Direction::kClockwise);
  const Arc ccw = ring.arc(4, 0, Direction::kCounterClockwise);
  // Same physical spans, opposite waveguides: no conflict.
  EXPECT_FALSE(ring.arcs_conflict(cw, ccw));
}

TEST(Ring, ConflictDetection) {
  const RingTopology ring(8);
  const Arc a = ring.arc(0, 3, Direction::kClockwise);  // spans 0,1,2
  const Arc b = ring.arc(2, 5, Direction::kClockwise);  // spans 2,3,4
  const Arc c = ring.arc(5, 7, Direction::kClockwise);  // spans 5,6
  EXPECT_TRUE(ring.arcs_conflict(a, b));
  EXPECT_TRUE(ring.arcs_conflict(b, a));
  EXPECT_FALSE(ring.arcs_conflict(a, c));
  EXPECT_FALSE(ring.arcs_conflict(b, c));
}

TEST(Ring, ConflictOnWrappingArcs) {
  const RingTopology ring(8);
  const Arc wrap = ring.arc(6, 1, Direction::kClockwise);   // 6,7,0
  const Arc inner = ring.arc(0, 2, Direction::kClockwise);  // 0,1
  const Arc away = ring.arc(2, 5, Direction::kClockwise);   // 2,3,4
  EXPECT_TRUE(ring.arcs_conflict(wrap, inner));
  EXPECT_FALSE(ring.arcs_conflict(wrap, away));
}

TEST(Ring, ConflictMatchesSpanIntersection) {
  // Property check: arcs_conflict agrees with explicit span-set overlap for
  // every (src, dst, dir) pair on a small ring.
  const RingTopology ring(6);
  std::vector<Arc> arcs;
  for (NodeId s = 0; s < 6; ++s) {
    for (NodeId d = 0; d < 6; ++d) {
      if (s == d) continue;
      arcs.push_back(ring.arc(s, d, Direction::kClockwise));
      arcs.push_back(ring.arc(s, d, Direction::kCounterClockwise));
    }
  }
  for (const Arc& a : arcs) {
    const auto spans_a = ring.spans(a);
    const std::set<SpanId> set_a(spans_a.begin(), spans_a.end());
    for (const Arc& b : arcs) {
      bool overlap = false;
      if (a.direction == b.direction) {
        for (const SpanId s : ring.spans(b)) {
          if (set_a.count(s) != 0) overlap = true;
        }
      }
      EXPECT_EQ(ring.arcs_conflict(a, b), overlap);
    }
  }
}

TEST(Ring, Advance) {
  const RingTopology ring(10);
  EXPECT_EQ(ring.advance(7, 5, Direction::kClockwise), 2u);
  EXPECT_EQ(ring.advance(2, 5, Direction::kCounterClockwise), 7u);
  EXPECT_EQ(ring.advance(3, 10, Direction::kClockwise), 3u);
  EXPECT_EQ(ring.advance(3, 23, Direction::kClockwise), 6u);
}

TEST(Ring, ArcAndDistanceConsistent) {
  const RingTopology ring(16);
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 0; d < 16; ++d) {
      if (s == d) continue;
      for (const Direction dir :
           {Direction::kClockwise, Direction::kCounterClockwise}) {
        const Arc arc = ring.arc(s, d, dir);
        EXPECT_EQ(arc.length, ring.distance(s, d, dir));
        EXPECT_EQ(ring.spans(arc).size(), arc.length);
        // Walking the arc ends at the destination.
        EXPECT_EQ(ring.advance(s, arc.length, dir), d);
      }
    }
  }
}

TEST(Ring, TwoNodeRing) {
  const RingTopology ring(2);
  EXPECT_EQ(ring.shortest_distance(0, 1), 1u);
  const Arc cw = ring.arc(0, 1, Direction::kClockwise);
  const Arc ccw = ring.arc(0, 1, Direction::kCounterClockwise);
  EXPECT_EQ(span_list(ring, cw), (std::vector<SpanId>{0}));
  EXPECT_EQ(span_list(ring, ccw), (std::vector<SpanId>{1}));
  EXPECT_FALSE(ring.arcs_conflict(cw, ccw));
}

TEST(Ring, OppositeHelper) {
  EXPECT_EQ(opposite(Direction::kClockwise), Direction::kCounterClockwise);
  EXPECT_EQ(opposite(Direction::kCounterClockwise), Direction::kClockwise);
}

}  // namespace
}  // namespace wrht::topo
