#include "optical/spectrum.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace wrht::optical {
namespace {

constexpr std::uint32_t kWordBits = 64;

/// An arc's spans as at most two runs of row words.  Run r covers words
/// first_word[r]..last_word[r]; its edge words take first_mask/last_mask
/// and the words between them are covered whole.  A run inside one word
/// carries its mask in both.
struct WordRuns {
  std::uint32_t first_word[2] = {0, 0};
  std::uint32_t last_word[2] = {0, 0};
  std::uint64_t first_mask[2] = {0, 0};
  std::uint64_t last_mask[2] = {0, 0};
  int count = 0;

  /// Append the span run [begin, end), begin < end.
  void add(std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t first = begin / kWordBits;
    const std::uint32_t last = (end - 1) / kWordBits;
    const std::uint64_t head = ~std::uint64_t{0} << (begin % kWordBits);
    // (end - 1) % 64 + 1 is in [1, 64], so the shift stays below 64.
    const std::uint64_t tail =
        ~std::uint64_t{0} >> (kWordBits - 1 - (end - 1) % kWordBits);
    if (count == 1 && first == last && first_word[0] == last_word[0] &&
        first == first_word[0]) {
      // A wrapping arc on a ring of at most 64 spans: one word, one mask
      // (measured ~15% off First Fit probes on a 64-span ring).
      first_mask[0] |= head & tail;
      last_mask[0] = first_mask[0];
      return;
    }
    first_word[count] = first;
    last_word[count] = last;
    first_mask[count] = first == last ? head & tail : head;
    last_mask[count] = first == last ? head & tail : tail;
    ++count;
  }
};

WordRuns runs_of(const topo::Arc& arc, std::uint32_t num_spans) {
  WRHT_REQUIRE(arc.first < num_spans && arc.length <= num_spans,
               "SpectrumMap: arc (first " << arc.first << ", length "
                                          << arc.length << ") off a ring of "
                                          << num_spans << " spans");
  WordRuns runs;
  if (arc.length == 0) return runs;
  // A counter-clockwise arc ends at its lowest span id.
  const std::uint32_t lo =
      arc.direction == topo::Direction::kClockwise
          ? arc.first
          : (arc.first + num_spans - (arc.length - 1)) % num_spans;
  const std::uint32_t hi = lo + arc.length;  // <= 2 * num_spans
  if (hi <= num_spans) {
    runs.add(lo, hi);
  } else {
    runs.add(lo, num_spans);
    runs.add(0, hi - num_spans);
  }
  return runs;
}

/// Calls visit(word index, mask of the arc's bits in that word) for every
/// word the runs touch; stops early, returning false, when visit does.
template <typename Visit>
bool for_each_word(const WordRuns& runs, Visit&& visit) {
  for (int r = 0; r < runs.count; ++r) {
    const std::uint32_t first = runs.first_word[r];
    const std::uint32_t last = runs.last_word[r];
    if (!visit(first, runs.first_mask[r])) return false;
    if (first == last) continue;
    for (std::uint32_t w = first + 1; w < last; ++w) {
      if (!visit(w, ~std::uint64_t{0})) return false;
    }
    if (!visit(last, runs.last_mask[r])) return false;
  }
  return true;
}

bool row_free(const std::uint64_t* row, const WordRuns& runs) {
  return for_each_word(runs, [row](std::uint32_t w, std::uint64_t mask) {
    return (row[w] & mask) == 0;
  });
}

bool span_taken(const std::uint64_t* row, topo::SpanId span) {
  return ((row[span / kWordBits] >> (span % kWordBits)) & 1) != 0;
}

}  // namespace

SpectrumMap::SpectrumMap(const topo::RingTopology& ring,
                         std::uint32_t num_wavelengths)
    : SpectrumMap(ring.num_spans(), num_wavelengths) {}

SpectrumMap::SpectrumMap(std::uint32_t num_spans,
                         std::uint32_t num_wavelengths) {
  reset(num_spans, num_wavelengths);
}

void SpectrumMap::reset(std::uint32_t num_spans,
                        std::uint32_t num_wavelengths) {
  WRHT_REQUIRE(num_wavelengths > 0,
               "SpectrumMap: need at least one wavelength");
  num_spans_ = num_spans;
  num_wavelengths_ = num_wavelengths;
  words_per_row_ = (num_spans + kWordBits - 1) / kWordBits;
  words_.assign(std::size_t{2} * num_wavelengths * words_per_row_, 0);
  usage_.assign(num_wavelengths, 0);
}

std::size_t SpectrumMap::row(topo::Direction dir, WavelengthId lambda) const {
  return (static_cast<std::size_t>(dir) * num_wavelengths_ + lambda) *
         words_per_row_;
}

bool SpectrumMap::is_free(const topo::Arc& arc, WavelengthId lambda) const {
  const WordRuns runs = runs_of(arc, num_spans_);
  return lambda < num_wavelengths_ &&
         row_free(&words_[row(arc.direction, lambda)], runs);
}

std::optional<WavelengthId> SpectrumMap::first_free(
    const topo::Arc& arc) const {
  const WordRuns runs = runs_of(arc, num_spans_);
  for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
    if (row_free(&words_[row(arc.direction, lambda)], runs)) return lambda;
  }
  return std::nullopt;
}

bool SpectrumMap::try_reserve(const topo::Arc& arc, WavelengthId lambda) {
  if (lambda >= num_wavelengths_) return false;
  const WordRuns runs = runs_of(arc, num_spans_);
  std::uint64_t* cells = &words_[row(arc.direction, lambda)];
  if (!row_free(cells, runs)) return false;
  for_each_word(runs, [cells](std::uint32_t w, std::uint64_t mask) {
    cells[w] |= mask;
    return true;
  });
  usage_[lambda] += arc.length;
  return true;
}

void SpectrumMap::reserve(const topo::Arc& arc, WavelengthId lambda) {
  if (try_reserve(arc, lambda)) return;
  // Failure path only: name the first taken span in traversal order.
  WRHT_REQUIRE(lambda < num_wavelengths_,
               "SpectrumMap: wavelength " << lambda << " out of range [0,"
                                          << num_wavelengths_ << ")");
  const std::uint64_t* cells = &words_[row(arc.direction, lambda)];
  for (const topo::SpanId span : topo::SpanRange(arc, num_spans_)) {
    WRHT_REQUIRE(!span_taken(cells, span),
                 "SpectrumMap: wavelength "
                     << lambda << " already taken on span " << span << " ("
                     << topo::direction_name(arc.direction) << ")");
  }
}

void SpectrumMap::release(const topo::Arc& arc, WavelengthId lambda) {
  WRHT_REQUIRE(lambda < num_wavelengths_,
               "SpectrumMap: wavelength " << lambda << " out of range [0,"
                                          << num_wavelengths_ << ")");
  const WordRuns runs = runs_of(arc, num_spans_);
  std::uint64_t* cells = &words_[row(arc.direction, lambda)];
  const bool all_taken =
      for_each_word(runs, [cells](std::uint32_t w, std::uint64_t mask) {
        return (cells[w] & mask) == mask;
      });
  if (!all_taken) {
    // Failure path only: name the first free span in traversal order.
    for (const topo::SpanId span : topo::SpanRange(arc, num_spans_)) {
      WRHT_REQUIRE(span_taken(cells, span),
                   "SpectrumMap: releasing free wavelength "
                       << lambda << " on span " << span);
    }
  }
  for_each_word(runs, [cells](std::uint32_t w, std::uint64_t mask) {
    cells[w] &= ~mask;
    return true;
  });
  usage_[lambda] -= arc.length;
}

std::uint32_t SpectrumMap::wavelengths_in_use() const {
  std::uint32_t used = 0;
  for (WavelengthId lambda = 0; lambda < num_wavelengths_; ++lambda) {
    if (usage_[lambda] > 0) ++used;
  }
  return used;
}

std::uint64_t SpectrumMap::occupied_cells(topo::Direction dir) const {
  const auto begin =
      words_.begin() + static_cast<std::ptrdiff_t>(row(dir, 0));
  const auto end =
      begin + static_cast<std::ptrdiff_t>(num_wavelengths_ * words_per_row_);
  std::uint64_t count = 0;
  for (auto word = begin; word != end; ++word) {
    count += static_cast<std::uint64_t>(std::popcount(*word));
  }
  return count;
}

std::uint32_t SpectrumMap::usage(WavelengthId lambda) const {
  return lambda < num_wavelengths_ ? usage_[lambda] : 0;
}

void SpectrumMap::clear() {
  std::fill(words_.begin(), words_.end(), 0);
  std::fill(usage_.begin(), usage_.end(), 0);
}

}  // namespace wrht::optical
