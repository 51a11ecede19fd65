// Per-span, per-wavelength occupancy of the two counter-rotating waveguides.
//
// A transfer claims one wavelength on every span of its arc; the map rejects
// double-booking, which is exactly the wavelength-conflict rule of a WDM
// ring without wavelength conversion.
//
// Word layout: one span bitset per (direction, wavelength), stored as
// ceil(num_spans / 64) uint64_t words, rows ordered [direction][lambda];
// span s is bit s % 64 of word s / 64.  An arc is one contiguous, possibly
// wrapping, run of spans, so it covers at most two masked word runs of a
// row: checking a wavelength along an arc is one AND per word touched,
// claiming it one OR, releasing it one AND-NOT.  Bits at or above num_spans
// in a row's last word are never set.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topo/ring.hpp"

namespace wrht::optical {

using WavelengthId = std::uint32_t;

class SpectrumMap {
 public:
  SpectrumMap(const topo::RingTopology& ring, std::uint32_t num_wavelengths);
  SpectrumMap(std::uint32_t num_spans, std::uint32_t num_wavelengths);

  /// Re-target to a ring of `num_spans` spans and `num_wavelengths`
  /// wavelengths, everything free; reuses the storage (scratch maps).
  void reset(std::uint32_t num_spans, std::uint32_t num_wavelengths);

  [[nodiscard]] std::uint32_t num_spans() const { return num_spans_; }
  [[nodiscard]] std::uint32_t num_wavelengths() const {
    return num_wavelengths_;
  }

  /// Is `lambda` free on every span of `arc`?
  [[nodiscard]] bool is_free(const topo::Arc& arc, WavelengthId lambda) const;

  /// Smallest wavelength free along the whole arc, if any (First Fit probe).
  [[nodiscard]] std::optional<WavelengthId> first_free(
      const topo::Arc& arc) const;

  /// Claim `lambda` along `arc`.  Aborts if any span is already taken
  /// (callers must check is_free first; a conflict here is a logic error).
  void reserve(const topo::Arc& arc, WavelengthId lambda);

  /// Atomic check-and-claim: reserve `lambda` along `arc` iff every span is
  /// free, otherwise change nothing and return false.  Lets multi-job
  /// callers (the runtime's spectrum arbitration) detect a double-booking
  /// and report it instead of dying inside the map.
  [[nodiscard]] bool try_reserve(const topo::Arc& arc, WavelengthId lambda);

  /// Release `lambda` along `arc`.  Aborts if any span was not reserved.
  void release(const topo::Arc& arc, WavelengthId lambda);

  /// Number of wavelengths with at least one occupied span.
  [[nodiscard]] std::uint32_t wavelengths_in_use() const;

  /// Occupied (span, lambda) pairs on the given waveguide direction.
  [[nodiscard]] std::uint64_t occupied_cells(topo::Direction dir) const;

  /// Total usage count of `lambda` across both waveguides (for Best Fit).
  [[nodiscard]] std::uint32_t usage(WavelengthId lambda) const;

  void clear();

 private:
  /// Offset of the (dir, lambda) span bitset in words_.
  [[nodiscard]] std::size_t row(topo::Direction dir,
                                WavelengthId lambda) const;

  std::uint32_t num_spans_ = 0;
  std::uint32_t num_wavelengths_ = 0;
  std::uint32_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;  // [dir][lambda][span word]
  std::vector<std::uint32_t> usage_;  // per lambda, both directions
};

}  // namespace wrht::optical
