#include "optical/spectrum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "util/random.hpp"

namespace wrht::optical {
namespace {

using topo::Arc;
using topo::Direction;
using topo::RingTopology;

TEST(Spectrum, FreshMapIsFree) {
  const RingTopology ring(8);
  const SpectrumMap spectrum(ring, 4);
  const Arc arc = ring.arc(0, 4, Direction::kClockwise);
  for (WavelengthId lambda = 0; lambda < 4; ++lambda) {
    EXPECT_TRUE(spectrum.is_free(arc, lambda));
  }
  EXPECT_EQ(spectrum.first_free(arc).value(), 0u);
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
}

TEST(Spectrum, ReserveBlocksOverlappingArc) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 4);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);
  // Overlapping arc: lambda 0 busy, lambda 1 free.
  const Arc overlapping = ring.arc(2, 5, Direction::kClockwise);
  EXPECT_FALSE(spectrum.is_free(overlapping, 0));
  EXPECT_TRUE(spectrum.is_free(overlapping, 1));
  EXPECT_EQ(spectrum.first_free(overlapping).value(), 1u);
}

TEST(Spectrum, DisjointArcReusesWavelength) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 4);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);
  const Arc disjoint = ring.arc(4, 7, Direction::kClockwise);
  EXPECT_TRUE(spectrum.is_free(disjoint, 0));
}

TEST(Spectrum, OppositeDirectionIsSeparateWaveguide) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(ring.arc(0, 4, Direction::kClockwise), 0);
  EXPECT_TRUE(
      spectrum.is_free(ring.arc(4, 0, Direction::kCounterClockwise), 0));
}

TEST(Spectrum, ReleaseRestoresFreedom) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  const Arc arc = ring.arc(1, 6, Direction::kClockwise);
  spectrum.reserve(arc, 1);
  EXPECT_FALSE(spectrum.is_free(arc, 1));
  spectrum.release(arc, 1);
  EXPECT_TRUE(spectrum.is_free(arc, 1));
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
}

TEST(Spectrum, FirstFreeExhaustion) {
  const RingTopology ring(4);
  SpectrumMap spectrum(ring, 2);
  const Arc arc = ring.arc(0, 2, Direction::kClockwise);
  spectrum.reserve(arc, 0);
  spectrum.reserve(arc, 1);
  EXPECT_FALSE(spectrum.first_free(arc).has_value());
}

TEST(Spectrum, UsageCountsSpans) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);  // 3 spans
  spectrum.reserve(ring.arc(5, 7, Direction::kClockwise), 0);  // 2 spans
  EXPECT_EQ(spectrum.usage(0), 5u);
  EXPECT_EQ(spectrum.usage(1), 0u);
  EXPECT_EQ(spectrum.occupied_cells(Direction::kClockwise), 5u);
  EXPECT_EQ(spectrum.occupied_cells(Direction::kCounterClockwise), 0u);
  EXPECT_EQ(spectrum.wavelengths_in_use(), 1u);
}

TEST(Spectrum, ClearResetsEverything) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(ring.arc(0, 3, Direction::kClockwise), 0);
  spectrum.clear();
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
  EXPECT_TRUE(spectrum.is_free(ring.arc(0, 3, Direction::kClockwise), 0));
}

TEST(Spectrum, OutOfRangeWavelengthNeverFree) {
  const RingTopology ring(4);
  const SpectrumMap spectrum(ring, 2);
  EXPECT_FALSE(spectrum.is_free(ring.arc(0, 1, Direction::kClockwise), 7));
}

TEST(Spectrum, NestedArcsOneSide) {
  // The Wrht left-side pattern: arcs [k..rep) all ending at the same node
  // pairwise conflict, so they consume one wavelength each.
  const RingTopology ring(16);
  SpectrumMap spectrum(ring, 8);
  const topo::NodeId rep = 8;
  for (topo::NodeId member = 4; member < rep; ++member) {
    const Arc arc = ring.arc(member, rep, Direction::kClockwise);
    const auto lambda = spectrum.first_free(arc);
    ASSERT_TRUE(lambda.has_value());
    spectrum.reserve(arc, *lambda);
  }
  EXPECT_EQ(spectrum.wavelengths_in_use(), 4u);
}

TEST(Spectrum, DoubleReserveNamesFirstTakenSpanInTraversalOrder) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(Arc{Direction::kClockwise, 3, 2}, 0);  // spans 3, 4
  EXPECT_DEATH(spectrum.reserve(Arc{Direction::kClockwise, 2, 4}, 0),
               "SpectrumMap: wavelength 0 already taken on span 3 \\(cw\\)");
  spectrum.reserve(Arc{Direction::kCounterClockwise, 4, 2}, 1);  // 4, 3
  EXPECT_DEATH(spectrum.reserve(Arc{Direction::kCounterClockwise, 6, 5}, 1),
               "SpectrumMap: wavelength 1 already taken on span 4 \\(ccw\\)");
}

TEST(Spectrum, ReleasingFreeCellNamesFirstFreeSpan) {
  const RingTopology ring(8);
  SpectrumMap spectrum(ring, 2);
  spectrum.reserve(Arc{Direction::kClockwise, 6, 2}, 1);  // spans 6, 7
  // Wraps 6, 7, 0: span 0 was never claimed.
  EXPECT_DEATH(spectrum.release(Arc{Direction::kClockwise, 6, 3}, 1),
               "SpectrumMap: releasing free wavelength 1 on span 0");
  EXPECT_DEATH(spectrum.release(Arc{Direction::kClockwise, 6, 2}, 0),
               "SpectrumMap: releasing free wavelength 0 on span 6");
}

TEST(Spectrum, ResetRetargetsAUsedMap) {
  SpectrumMap spectrum(8, 4);
  spectrum.reserve(Arc{Direction::kClockwise, 0, 8}, 3);
  spectrum.reset(130, 65);
  EXPECT_EQ(spectrum.num_spans(), 130u);
  EXPECT_EQ(spectrum.num_wavelengths(), 65u);
  EXPECT_EQ(spectrum.wavelengths_in_use(), 0u);
  EXPECT_EQ(spectrum.occupied_cells(Direction::kClockwise), 0u);
  const Arc full{Direction::kCounterClockwise, 129, 130};
  spectrum.reserve(full, 64);
  EXPECT_EQ(spectrum.occupied_cells(Direction::kCounterClockwise), 130u);
  EXPECT_EQ(spectrum.first_free(full).value(), 0u);
}

// The textbook map the packed one replaced: one bool per (direction, span,
// wavelength), every operation walking the arc span by span.
class NaiveSpectrum {
 public:
  NaiveSpectrum(const RingTopology& ring, std::uint32_t num_wavelengths)
      : ring_(ring),
        num_wavelengths_(num_wavelengths),
        occupied_(std::size_t{2} * ring.num_spans() * num_wavelengths),
        usage_(num_wavelengths, 0) {}

  bool is_free(const Arc& arc, WavelengthId lambda) const {
    if (lambda >= num_wavelengths_) return false;
    for (const topo::SpanId span : ring_.spans(arc)) {
      if (occupied_[cell(arc.direction, span, lambda)]) return false;
    }
    return true;
  }
  std::optional<WavelengthId> first_free(const Arc& arc) const {
    for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
      if (is_free(arc, lambda)) return lambda;
    }
    return std::nullopt;
  }
  void reserve(const Arc& arc, WavelengthId lambda) {
    for (const topo::SpanId span : ring_.spans(arc)) {
      occupied_[cell(arc.direction, span, lambda)] = true;
      ++usage_[lambda];
    }
  }
  void release(const Arc& arc, WavelengthId lambda) {
    for (const topo::SpanId span : ring_.spans(arc)) {
      occupied_[cell(arc.direction, span, lambda)] = false;
      --usage_[lambda];
    }
  }
  std::uint32_t usage(WavelengthId lambda) const {
    return lambda < num_wavelengths_ ? usage_[lambda] : 0;
  }
  std::uint32_t wavelengths_in_use() const {
    std::uint32_t used = 0;
    for (const std::uint32_t u : usage_) used += u > 0 ? 1 : 0;
    return used;
  }
  std::uint64_t occupied_cells(Direction dir) const {
    std::uint64_t count = 0;
    for (topo::SpanId span = 0; span < ring_.num_spans(); ++span) {
      for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
        count += occupied_[cell(dir, span, lambda)] ? 1 : 0;
      }
    }
    return count;
  }
  void clear() {
    occupied_.assign(occupied_.size(), false);
    usage_.assign(usage_.size(), 0);
  }

 private:
  std::size_t cell(Direction dir, topo::SpanId span,
                   WavelengthId lambda) const {
    return (static_cast<std::size_t>(dir) * ring_.num_spans() + span) *
               num_wavelengths_ +
           lambda;
  }

  const RingTopology& ring_;
  std::uint32_t num_wavelengths_;
  std::vector<bool> occupied_;
  std::vector<std::uint32_t> usage_;
};

// Any arc of the ring, wrapping or not, with the edge lengths 0, 1, N-1
// and N drawn as often as all the others together.
Arc random_arc(util::Rng& rng, std::uint32_t n) {
  Arc arc;
  arc.direction = rng.next_below(2) == 0 ? Direction::kClockwise
                                         : Direction::kCounterClockwise;
  arc.first = static_cast<topo::SpanId>(rng.next_below(n));
  const std::uint32_t edges[] = {0, 1, n - 1, n};
  arc.length = rng.next_below(2) == 0
                   ? edges[rng.next_below(4)]
                   : static_cast<std::uint32_t>(rng.next_below(n + 1));
  return arc;
}

TEST(Spectrum, PackedMapMatchesNaiveReferenceOnRandomSequences) {
  util::Rng rng(0x5BEC7A);
  for (const std::uint32_t n : {2u, 8u, 63u, 64u, 65u, 128u, 130u}) {
    for (const std::uint32_t w : {1u, 63u, 64u, 65u, 130u}) {
      SCOPED_TRACE(::testing::Message() << "N=" << n << " W=" << w);
      const RingTopology ring(n);
      SpectrumMap packed(ring, w);
      NaiveSpectrum naive(ring, w);
      struct Claim {
        Arc arc;
        WavelengthId lambda;
      };
      std::vector<Claim> live;
      // Low wavelengths half the time so claims collide even when W is big;
      // one past the end is a legal query that is never free.
      const auto random_lambda = [&] {
        const std::uint64_t bound = rng.next_below(2) == 0 ? 4 : w + 1;
        return static_cast<WavelengthId>(
            rng.next_below(std::min<std::uint64_t>(bound, w + 1)));
      };
      for (int op = 0; op < 400; ++op) {
        const Arc arc = random_arc(rng, n);
        const WavelengthId lambda = random_lambda();
        switch (rng.next_below(8)) {
          case 0:
            ASSERT_EQ(packed.is_free(arc, lambda), naive.is_free(arc, lambda));
            break;
          case 1: {
            const std::optional<WavelengthId> first = naive.first_free(arc);
            ASSERT_EQ(packed.first_free(arc), first);
            if (first.has_value()) {
              packed.reserve(arc, *first);
              naive.reserve(arc, *first);
              live.push_back({arc, *first});
            }
            break;
          }
          case 2:
          case 3: {
            const bool ok = naive.is_free(arc, lambda);
            ASSERT_EQ(packed.try_reserve(arc, lambda), ok);
            if (ok) {
              naive.reserve(arc, lambda);
              live.push_back({arc, lambda});
            }
            break;
          }
          case 4:
            if (lambda < w && naive.is_free(arc, lambda)) {
              packed.reserve(arc, lambda);
              naive.reserve(arc, lambda);
              live.push_back({arc, lambda});
            }
            break;
          case 5:
          case 6:
            if (!live.empty()) {
              const std::size_t pick = rng.next_below(live.size());
              packed.release(live[pick].arc, live[pick].lambda);
              naive.release(live[pick].arc, live[pick].lambda);
              live[pick] = live.back();
              live.pop_back();
            }
            break;
          default:
            if (rng.next_below(16) == 0) {
              packed.clear();
              naive.clear();
              live.clear();
            }
            break;
        }
        ASSERT_EQ(packed.usage(lambda), naive.usage(lambda));
        ASSERT_EQ(packed.wavelengths_in_use(), naive.wavelengths_in_use());
        if (op % 25 == 0) {
          for (const Direction dir :
               {Direction::kClockwise, Direction::kCounterClockwise}) {
            ASSERT_EQ(packed.occupied_cells(dir), naive.occupied_cells(dir));
          }
          for (WavelengthId l = 0; l <= w; ++l) {
            ASSERT_EQ(packed.usage(l), naive.usage(l));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wrht::optical
