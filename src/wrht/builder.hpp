// The Wrht schedule builder — the paper's contribution (§2).
//
// Reduce stage: partition the active nodes into groups of m along the ring;
// every member sends its full partial vector to the group's middle
// representative (floor(m/2) wavelengths per group, spatially reused across
// groups and across the two waveguide directions); recurse on the
// representatives.  When the surviving representative count m* is small
// enough that an all-to-all among them fits in the spectrum
// (ceil(m*^2 / 8) <= w, the Liang & Shen bound), the last reduce step is
// that all-to-all, which leaves every representative holding the final
// vector.  Broadcast stage: mirror the tree levels back down with copies.
//
// Step count: 2 * ceil(log_m N) when the tree reduces to a single root
// (all-to-all merge disabled or infeasible), 2 * ceil(log_m N) - 1 when the
// final reduce step is the all-to-all — exactly the paper's formula.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "optical/assign.hpp"
#include "wrht/annotated.hpp"
#include "wrht/group.hpp"

namespace wrht::core {

struct WrhtParams {
  std::uint32_t num_wavelengths = 64;
  /// Override the group size m (default: largest m with floor(m/2) <= w,
  /// i.e. min(N, 2w + 1)).  Must be >= 2.
  std::optional<std::uint32_t> forced_group_size;
  /// Allow the final all-to-all merge step (paper default).  When false the
  /// reduce stage always finishes at a single root.
  bool allow_all_to_all_merge = true;
  optical::FitPolicy fit_policy = optical::FitPolicy::kFirstFit;
};

struct WrhtLevel {
  std::vector<Group> groups;
};

struct WrhtBuild {
  AnnotatedSchedule annotated;
  /// The nodes the reduce stage starts from (ascending): the participant
  /// set for a fresh build, the surviving representatives for a remainder
  /// whose reduce stage is still ahead, empty when a remainder is only owed
  /// mirrors.  A rebuild before the first step reduces over exactly this
  /// set — never over a caller-supplied list, which for a remainder would
  /// count already-merged contributions twice.
  std::vector<topo::NodeId> participants;
  std::vector<WrhtLevel> reduce_levels;  // tree levels, bottom-up
  /// Broadcast levels in EXECUTION order (one schedule step each, top-down).
  /// A fresh build mirrors reduce_levels in reverse; a remainder rebuilt
  /// mid-flight (rebuild_wrht_remainder) appends the suspended build's
  /// still-owed mirrors after its own, so the step layout invariant
  ///   steps = reduce_levels + (merged ? 1 : 0) + broadcast_levels
  /// holds for every build, original or renegotiated.
  std::vector<WrhtLevel> broadcast_levels;
  std::uint32_t group_size_m = 0;
  /// Representatives alive entering the final reduce step (paper's m*).
  std::uint32_t final_rep_count_mstar = 0;
  bool merged_with_all_to_all = false;

  /// Schedule step index where the broadcast stage starts.
  [[nodiscard]] std::size_t reduce_step_count() const {
    return reduce_levels.size() + (merged_with_all_to_all ? 1 : 0);
  }
};

/// Largest admissible group size for `w` wavelengths: floor(m/2) <= w.
[[nodiscard]] std::uint32_t default_group_size(std::uint32_t num_nodes,
                                               std::uint32_t num_wavelengths);

/// Wavelengths the paper's bound allocates to an all-to-all among k nodes.
[[nodiscard]] std::uint32_t all_to_all_wavelength_bound(std::uint32_t k);

/// The actual merge feasibility test: direction-balanced all-to-all routing
/// among `active` colored within `num_wavelengths`.  The builder merges when
/// both the paper's ceil(k^2/8) gate and this probe pass; the heuristic
/// routing+coloring lands within ~10% of the Liang & Shen bound (see the
/// assignment_ablation bench), so near the gate boundary the probe can
/// reject a merge the idealized formula would allow.
[[nodiscard]] bool all_to_all_merge_fits(const topo::RingTopology& ring,
                                         const std::vector<topo::NodeId>& active,
                                         std::uint32_t num_wavelengths,
                                         optical::FitPolicy policy);

/// Step count for (N, m, w): 2*ceil(log_m N), minus one when the all-to-all
/// merge fires.  Walks the exact level structure (including the routing
/// probe), so it always equals build_wrht's step count.
[[nodiscard]] std::uint32_t predicted_steps(std::uint32_t num_nodes,
                                            std::uint32_t group_size,
                                            std::uint32_t num_wavelengths,
                                            bool allow_merge = true);

/// Build the full Wrht schedule for `num_nodes` nodes.  Aborts on invalid
/// parameters (m < 2); never fails otherwise — the tree step is always
/// realizable within floor(m/2) <= w wavelengths.
[[nodiscard]] WrhtBuild build_wrht(std::uint32_t num_nodes,
                                   const WrhtParams& params);

/// Elastic variant: all-reduce among an arbitrary subset of the ring.
/// `participants` (ascending, unique, >= 2 of them) are the nodes holding
/// gradients; the other ring positions are pass-through (failed, excluded,
/// or busy nodes — their micro-rings stay off-resonance and light crosses
/// them untouched).  The returned schedule's num_nodes() is `ring_size`;
/// non-participants never appear in any transfer.  Group sizes default to
/// min(|participants|, 2w+1).
[[nodiscard]] WrhtBuild build_wrht_among(
    const std::vector<topo::NodeId>& participants, std::uint32_t ring_size,
    const WrhtParams& params);

/// Step-boundary renegotiation seam: rebuild the not-yet-executed remainder
/// of `build` against a (possibly different) wavelength budget.
///
/// `steps_done` schedule steps of `build` have completed (0 <= steps_done <
/// num_steps), so the collective's logical state is known exactly: in the
/// reduce stage the surviving representatives hold their subtree partial
/// sums; in the broadcast stage some mirrors are still owed.  The returned
/// build finishes the all-reduce from that state — a fresh sub-all-reduce
/// among the survivors (sized for params.num_wavelengths, so a wider band
/// yields fewer levels and a narrower one more) followed by the mirrors of
/// the already-executed tree levels, recolored for the new budget.
/// Executing the first steps_done steps of `build` and then all steps of the
/// returned build finishes whatever all-reduce `build` was finishing: the
/// one among build.participants for a fresh build, the original job's for
/// a remainder.
///
/// Composes: the result is itself a structurally valid WrhtBuild, so a
/// resized or resumed execution can be renegotiated again at a later
/// boundary.  Returns nullopt when an inherited mirror level cannot be
/// recolored within params.num_wavelengths (the caller must keep a band at
/// least as wide as that level needs, or wait for one).
[[nodiscard]] std::optional<WrhtBuild> rebuild_wrht_remainder(
    const WrhtBuild& build, std::size_t steps_done, std::uint32_t ring_size,
    const WrhtParams& params);

/// Fault variant of rebuild_wrht_remainder: the nodes in `evicted` have
/// FAILED and must be dropped from the remainder's delivery set.  Succeeds
/// only when every evicted node's contribution is already merged and no
/// survivor depends on it for delivery:
///
///  * an evicted node still holding a live subtree partial (it is among the
///    surviving representatives at this boundary) loses those contributions
///    with it — refused, the caller must restart among the survivors;
///  * an evicted node that is the representative of an owed mirror group
///    with surviving members would orphan their delivery — refused likewise.
///
/// Otherwise evicted nodes are stripped from the owed mirror levels (groups
/// whose membership dies entirely are dropped, levels left with no transfers
/// are skipped).  Executing the first steps_done steps of `build` and then
/// the returned build delivers the sum over ALL original participants to
/// every participant EXCEPT the evicted ones, whose final state is
/// unspecified — exactly what the contributors/recipients all-reduce oracle
/// checks.  With `evicted` empty this is rebuild_wrht_remainder.
[[nodiscard]] std::optional<WrhtBuild> rebuild_wrht_remainder_evicting(
    const WrhtBuild& build, std::size_t steps_done,
    const std::vector<topo::NodeId>& evicted, std::uint32_t ring_size,
    const WrhtParams& params);

}  // namespace wrht::core
