// Global spectrum allocation at renegotiation boundaries.
//
// The arbiter's first-fit hands every band the lowest-based free run that
// fits — blind to who else is queued, to when its neighbors' bands come
// back, and to the fragments it strands.  rostam allocates ring bandwidth
// per episode as a small optimization problem (BWDecisionType::ILP /
// MINCOSTFLOW); SpectrumPlanner recasts band placement the same way, as a
// DP over the contiguous-band structure of the arbiter's interval index:
//
// At each renegotiation boundary (admit, step-boundary resume, elastic
// grow/shrink replan, preemption replan) the runtime hands the planner a
// snapshot of the spectrum — the free intervals, every outstanding band
// with its predicted release time, and the minimum widths of the demand
// still waiting (queued jobs plus suspended executions).  choose_base()
// scores the candidate placements of the band being placed jointly against
// that demand, minimizing a lexicographic cost:
//
//   1. pending demand blocked   — how many waiting minimum-widths no longer
//                                 pack into the remaining free intervals
//                                 (the joint-placement term: never strand a
//                                 resumable job to shave a fragment);
//   2. dead sliver              — leftover split off the chosen interval
//                                 that is too narrow for ANY waiting width
//                                 (fragmentation the mix cannot use);
//   3. interval waste           — best fit (smallest fitting interval):
//                                 carving the snuggest hole provably
//                                 maximizes the largest free run left
//                                 behind, keeping wide runs intact;
//   4. neighbor release time    — seconds until the outstanding band
//                                 abutting the chosen END frees (equal
//                                 waste either end, so this term picks the
//                                 alignment: abutting a soon-to-free
//                                 neighbor positions the job for elastic
//                                 grow and re-merges spectrum sooner;
//                                 spectrum edges never free);
//   5. lowest base              — first-fit's own tie-break, so on an idle
//                                 unconstrained spectrum the planner and
//                                 first-fit choose identical bands.
//
// Candidates are the two ends of each fitting free interval — on contiguous
// spectrum any interior placement is dominated by one of its end-aligned
// shifts (it fragments both sides at once), which is what keeps the DP
// O(#holes) per placement instead of O(W).
//
// earliest_fit() is the planner's availability function: the first instant
// a CONTIGUOUS run of the needed width exists, found by merging outstanding
// bands back into the free-interval structure in predicted-release order.
// It replaces the contiguity-blind free-total credit walk the congestion-
// aware router used to use — a fragmented pool whose total covers the
// request no longer reads as "available now".
//
// The planner only proposes; every placement still goes through
// SpectrumArbiter::allocate_at (occupancy-checked) and the existing
// disjointness/oracle machinery proves the result before it touches the
// ring.  First-fit stays selectable (SpectrumPolicy::kFirstFit) as the
// ablation baseline.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/arbiter.hpp"
#include "runtime/job.hpp"
#include "util/units.hpp"

namespace wrht::runtime {

/// How the optical substrate places bands.
enum class SpectrumPolicy : std::uint8_t {
  /// Lowest-based free run that fits (the historical greedy baseline).
  kFirstFit,
  /// SpectrumPlanner's joint placement (the default).
  kPlanner,
};

/// An outstanding band and the instant its owner is predicted to return it.
struct OutstandingBand {
  WavelengthBand band;
  util::Seconds predicted_end{0.0};
};

/// Spectrum snapshot a placement decision is scored against.
struct PlannerContext {
  /// Maximal free runs, sorted by base (SpectrumArbiter::free_intervals()).
  std::vector<SpectrumArbiter::FreeInterval> free_intervals;
  /// Every band currently granted, with its predicted release time.
  std::vector<OutstandingBand> outstanding;
  /// Minimum widths of the demand still waiting for spectrum (queued
  /// optically-eligible jobs + suspended optical executions), EXCLUDING the
  /// job being placed.  Order is irrelevant.
  std::vector<std::uint32_t> pending_min_widths;
  std::uint32_t total_wavelengths = 0;
  util::Seconds now{0.0};
};

class SpectrumPlanner {
 public:
  /// Base of the band the planner places a `width`-wide job at, or nullopt
  /// when no free run fits.  Deterministic for a fixed context.
  [[nodiscard]] static std::optional<std::uint32_t> choose_base(
      std::uint32_t width, const PlannerContext& ctx);

  /// Earliest instant a contiguous free run of `width` exists, assuming
  /// outstanding bands release at their predicted ends (and nothing new is
  /// placed meanwhile).  Returns ctx.now when a run already fits; merges
  /// bands back in predicted-release order otherwise.  When even the full
  /// spectrum cannot fit `width`, returns the last merge instant (the
  /// caller's width was already clamped to the spectrum, so this is a
  /// defensive floor, not a reachable verdict).
  [[nodiscard]] static util::Seconds earliest_fit(std::uint32_t width,
                                                  const PlannerContext& ctx);
};

}  // namespace wrht::runtime
