// The step-boundary rebuild seam: rebuild_wrht_remainder must, for ANY cut
// point and ANY new wavelength budget it accepts, produce a remainder whose
// composition with the already-executed prefix is still a correct all-reduce
// (proven with the functional oracle), and must refuse budgets that cannot
// carry the mirrors the executed tree levels are owed.
#include "wrht/builder.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "coll/oracle.hpp"

namespace wrht::core {
namespace {

std::vector<topo::NodeId> every_other(std::uint32_t ring_size) {
  std::vector<topo::NodeId> nodes;
  for (std::uint32_t i = 0; i < ring_size; i += 2) nodes.push_back(i);
  return nodes;
}

WrhtParams params_for(std::uint32_t wavelengths) {
  WrhtParams params;
  params.num_wavelengths = wavelengths;
  return params;
}

// The schedule an execution actually runs after a renegotiation at
// `steps_done`: the original prefix followed by the rebuilt remainder.
coll::Schedule compose(const coll::Schedule& prefix, std::size_t steps_done,
                       const coll::Schedule& remainder) {
  coll::Schedule out("composite", prefix.num_nodes(), 1);
  for (std::size_t s = 0; s < steps_done; ++s) {
    out.add_step();
    for (const coll::Transfer& t : prefix.steps()[s].transfers) {
      out.add_transfer(t);
    }
  }
  for (const coll::Step& step : remainder.steps()) {
    out.add_step();
    for (const coll::Transfer& t : step.transfers) out.add_transfer(t);
  }
  return out;
}

TEST(Rebuild, FreshBuildCarriesMirroredBroadcastLevels) {
  const WrhtBuild build = build_wrht(32, params_for(4));
  ASSERT_EQ(build.broadcast_levels.size(), build.reduce_levels.size());
  EXPECT_EQ(build.annotated.schedule.num_steps(),
            build.reduce_step_count() + build.broadcast_levels.size());
  // Broadcast runs top-down: first mirror is the LAST reduce level.
  for (std::size_t i = 0; i < build.reduce_levels.size(); ++i) {
    const WrhtLevel& mirror = build.broadcast_levels[i];
    const WrhtLevel& level =
        build.reduce_levels[build.reduce_levels.size() - 1 - i];
    ASSERT_EQ(mirror.groups.size(), level.groups.size());
    EXPECT_EQ(mirror.groups.front().rep(), level.groups.front().rep());
  }
}

TEST(Rebuild, EveryCutPointAndBudgetStaysCorrect) {
  const std::uint32_t ring_size = 32;
  const std::vector<topo::NodeId> participants = every_other(ring_size);
  for (const std::uint32_t w_old : {2u, 4u, 8u}) {
    const WrhtBuild build =
        build_wrht_among(participants, ring_size, params_for(w_old));
    const std::size_t total = build.annotated.schedule.num_steps();
    ASSERT_GE(total, 2u);
    for (std::size_t cut = 0; cut < total; ++cut) {
      for (const std::uint32_t w_new : {1u, 2u, 8u, 32u}) {
        const std::optional<WrhtBuild> rebuilt = rebuild_wrht_remainder(
            build, cut, ring_size, params_for(w_new));
        if (w_new >= w_old) {
          // A budget at least as wide as the original can always recolor
          // the inherited mirrors.
          ASSERT_TRUE(rebuilt)
              << "w_old=" << w_old << " cut=" << cut << " w_new=" << w_new;
        }
        if (!rebuilt) continue;
        EXPECT_LE(rebuilt->annotated.wavelengths_required, w_new);
        const coll::Schedule composite = compose(
            build.annotated.schedule, cut, rebuilt->annotated.schedule);
        const coll::OracleResult verdict =
            coll::Oracle::verify_allreduce_among(composite, participants, 24);
        EXPECT_TRUE(verdict.ok)
            << "w_old=" << w_old << " cut=" << cut << " w_new=" << w_new
            << ": " << verdict.message;
      }
    }
  }
}

TEST(Rebuild, WiderBudgetCollapsesRemainingLevels) {
  // 24 participants on 2 wavelengths: groups of 5, two tree levels plus two
  // mirrors.  After the first step a 64-wavelength band merges the surviving
  // representatives in one all-to-all instead of finishing the tree.
  const std::uint32_t ring_size = 32;
  std::vector<topo::NodeId> participants(24);
  std::iota(participants.begin(), participants.end(), 0);
  const WrhtBuild narrow =
      build_wrht_among(participants, ring_size, params_for(2));
  const std::size_t total = narrow.annotated.schedule.num_steps();
  const std::size_t cut = 1;
  const std::optional<WrhtBuild> wide = rebuild_wrht_remainder(
      narrow, cut, ring_size, params_for(64));
  ASSERT_TRUE(wide);
  EXPECT_LT(wide->annotated.schedule.num_steps(), total - cut);
  EXPECT_TRUE(wide->merged_with_all_to_all);
}

TEST(Rebuild, NarrowBudgetBelowMirrorDemandIsRefused) {
  // 17 participants in one group: the reduce step and its mirror each need
  // floor(17/2) = 8 wavelengths.  After the reduce step completed, a
  // 2-wavelength band cannot carry the owed mirror — the seam must say so
  // rather than emit an unrunnable schedule.
  const std::uint32_t ring_size = 20;
  std::vector<topo::NodeId> participants(17);
  std::iota(participants.begin(), participants.end(), 0);
  const WrhtBuild build =
      build_wrht_among(participants, ring_size, params_for(8));
  ASSERT_EQ(build.reduce_levels.size(), 1u);
  EXPECT_FALSE(rebuild_wrht_remainder(build, 1, ring_size, params_for(2)));
  EXPECT_TRUE(rebuild_wrht_remainder(build, 1, ring_size, params_for(8)));
}

TEST(Rebuild, ComposesAcrossRepeatedRenegotiations) {
  // Renegotiate twice: narrow -> wide after one step, then wide -> narrow
  // after one more.  The rebuilt build must itself be rebuildable, and the
  // three-schedule composition must still be the all-reduce.
  const std::uint32_t ring_size = 32;
  const std::vector<topo::NodeId> participants = every_other(ring_size);
  const WrhtBuild first =
      build_wrht_among(participants, ring_size, params_for(2));
  ASSERT_GE(first.annotated.schedule.num_steps(), 2u);
  const std::optional<WrhtBuild> second = rebuild_wrht_remainder(
      first, 1, ring_size, params_for(16));
  ASSERT_TRUE(second);
  ASSERT_GE(second->annotated.schedule.num_steps(), 2u);
  const std::optional<WrhtBuild> third = rebuild_wrht_remainder(
      *second, 1, ring_size, params_for(8));
  ASSERT_TRUE(third);

  coll::Schedule composite("twice", ring_size, 1);
  const auto append_prefix = [&composite](const coll::Schedule& from,
                                          std::size_t count) {
    for (std::size_t s = 0; s < count; ++s) {
      composite.add_step();
      for (const coll::Transfer& t : from.steps()[s].transfers) {
        composite.add_transfer(t);
      }
    }
  };
  append_prefix(first.annotated.schedule, 1);
  append_prefix(second->annotated.schedule, 1);
  append_prefix(third->annotated.schedule,
                third->annotated.schedule.num_steps());
  const coll::OracleResult verdict =
      coll::Oracle::verify_allreduce_among(composite, participants, 24);
  EXPECT_TRUE(verdict.ok) << verdict.message;

  // Cut the fresh remainder again before its first step (a grow or shrink
  // landing on the same boundary as an eviction).  Its reduce stage starts
  // from the representatives that already hold the merged partials, not
  // from the original participants — re-reducing those would count every
  // contribution twice.
  const std::optional<WrhtBuild> recut =
      rebuild_wrht_remainder(*second, 0, ring_size, params_for(8));
  ASSERT_TRUE(recut);
  const coll::OracleResult recut_verdict = coll::Oracle::verify_allreduce_among(
      compose(first.annotated.schedule, 1, recut->annotated.schedule),
      participants, 24);
  EXPECT_TRUE(recut_verdict.ok) << recut_verdict.message;

  // The evicting variant of the same step-0 cut: a non-representative of
  // the first level has already merged its contribution, so it can be
  // dropped from the delivery set of the fresh remainder.
  const Group& group = first.reduce_levels.front().groups.front();
  ASSERT_GE(group.size(), 2u);
  const topo::NodeId gone = group.members[group.rep_index == 0 ? 1 : 0];
  const std::optional<WrhtBuild> evicting = rebuild_wrht_remainder_evicting(
      *second, 0, {gone}, ring_size, params_for(8));
  ASSERT_TRUE(evicting);
  std::vector<topo::NodeId> survivors;
  for (const topo::NodeId node : participants) {
    if (node != gone) survivors.push_back(node);
  }
  const coll::OracleResult evict_verdict = coll::Oracle::verify_allreduce_among(
      compose(first.annotated.schedule, 1, evicting->annotated.schedule),
      participants, survivors, 24);
  EXPECT_TRUE(evict_verdict.ok) << evict_verdict.message;
}

}  // namespace
}  // namespace wrht::core
