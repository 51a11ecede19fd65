// The central correctness tests for the paper's algorithm: Wrht schedules
// must (a) compute a correct all-reduce for any (N, w), (b) match the
// paper's step-count formula, and (c) stay within the paper's wavelength
// bounds.
#include "wrht/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "coll/executor.hpp"
#include "coll/validation.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace wrht::core {
namespace {

WrhtParams params_with(std::uint32_t w) {
  WrhtParams params;
  params.num_wavelengths = w;
  return params;
}

TEST(DefaultGroupSize, FollowsWavelengthBudget) {
  // floor(m/2) <= w  =>  m = min(N, 2w+1).
  EXPECT_EQ(default_group_size(1024, 64), 129u);
  EXPECT_EQ(default_group_size(1024, 1), 3u);
  EXPECT_EQ(default_group_size(100, 64), 100u);
  EXPECT_EQ(default_group_size(2, 64), 2u);
}

TEST(AllToAllBound, MatchesPaperFormula) {
  EXPECT_EQ(all_to_all_wavelength_bound(2), 1u);   // ceil(4/8)
  EXPECT_EQ(all_to_all_wavelength_bound(8), 8u);   // ceil(64/8)
  EXPECT_EQ(all_to_all_wavelength_bound(22), 61u); // ceil(484/8)
  EXPECT_EQ(all_to_all_wavelength_bound(23), 67u); // just over w=64
}

class WrhtSweep : public ::testing::TestWithParam<
                      std::tuple<std::uint32_t, std::uint32_t>> {
 protected:
  std::uint32_t nodes() const { return std::get<0>(GetParam()); }
  std::uint32_t wavelengths() const { return std::get<1>(GetParam()); }
};

TEST_P(WrhtSweep, ComputesAllReduce) {
  const WrhtBuild build = build_wrht(nodes(), params_with(wavelengths()));
  const auto result = coll::FunctionalExecutor::verify_allreduce_detailed(
      build.annotated.schedule, /*payload_len=*/32);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_P(WrhtSweep, PassesStructuralValidation) {
  const WrhtBuild build = build_wrht(nodes(), params_with(wavelengths()));
  const coll::ValidationReport report =
      coll::validate(build.annotated.schedule);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(WrhtSweep, StepCountMatchesPrediction) {
  const WrhtBuild build = build_wrht(nodes(), params_with(wavelengths()));
  EXPECT_EQ(build.annotated.schedule.num_steps(),
            predicted_steps(nodes(), build.group_size_m, wavelengths()));
}

TEST_P(WrhtSweep, WavelengthBudgetRespected) {
  const WrhtBuild build = build_wrht(nodes(), params_with(wavelengths()));
  EXPECT_LE(build.annotated.wavelengths_required, wavelengths());
}

TEST_P(WrhtSweep, AnnotationShapeConsistent) {
  const WrhtBuild build = build_wrht(nodes(), params_with(wavelengths()));
  const auto& schedule = build.annotated.schedule;
  ASSERT_EQ(build.annotated.paths.size(), schedule.num_steps());
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    EXPECT_EQ(build.annotated.paths[s].size(),
              schedule.steps()[s].transfers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WrhtSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 8u, 9u, 16u, 17u,
                                         32u, 50u, 64u, 100u, 128u, 200u,
                                         256u),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u, 64u)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_w" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(WrhtBuilder, PaperScalePoints) {
  // The Figure-2 configurations: N in {128..1024}, w = 64, m = min(N, 129).
  for (const std::uint32_t n : {128u, 256u, 512u, 1024u}) {
    const WrhtBuild build = build_wrht(n, params_with(64));
    EXPECT_EQ(build.group_size_m, std::min(n, 129u));
    EXPECT_TRUE(coll::FunctionalExecutor::verify_allreduce(
        build.annotated.schedule, 8))
        << "N=" << n;
    EXPECT_LE(build.annotated.wavelengths_required, 64u);
  }
}

TEST(WrhtBuilder, N128SingleGroupTwoSteps) {
  // N=128 <= m=129: one reduce step to the middle node, one broadcast step.
  const WrhtBuild build = build_wrht(128, params_with(64));
  EXPECT_EQ(build.annotated.schedule.num_steps(), 2u);
  EXPECT_FALSE(build.merged_with_all_to_all);
  EXPECT_EQ(build.final_rep_count_mstar, 1u);
  ASSERT_EQ(build.reduce_levels.size(), 1u);
  EXPECT_EQ(build.reduce_levels[0].groups.size(), 1u);
  EXPECT_EQ(build.reduce_levels[0].groups[0].rep(), 64u);
  // floor(128/2) = 64 wavelengths on the heavier side.
  EXPECT_EQ(build.annotated.wavelengths_required, 64u);
}

TEST(WrhtBuilder, N1024ThreeStepsWithMerge) {
  // 1024 -> 8 representatives (1 step), all-to-all among 8 (1 step),
  // broadcast (1 step): the paper's 2*ceil(log_129 1024) - 1 = 3.
  const WrhtBuild build = build_wrht(1024, params_with(64));
  EXPECT_EQ(build.annotated.schedule.num_steps(), 3u);
  EXPECT_TRUE(build.merged_with_all_to_all);
  EXPECT_EQ(build.final_rep_count_mstar, 8u);
  EXPECT_EQ(build.reduce_levels.size(), 1u);
}

TEST(WrhtBuilder, SmallClusterSingleAllToAll) {
  // N small enough that ceil(N^2/8) <= w: one step total.
  const WrhtBuild build = build_wrht(16, params_with(64));
  EXPECT_EQ(build.annotated.schedule.num_steps(), 1u);
  EXPECT_TRUE(build.merged_with_all_to_all);
  EXPECT_EQ(build.final_rep_count_mstar, 16u);
}

TEST(WrhtBuilder, MergeDisabledReducesToRoot) {
  WrhtParams params = params_with(64);
  params.allow_all_to_all_merge = false;
  const WrhtBuild build = build_wrht(1024, params);
  EXPECT_FALSE(build.merged_with_all_to_all);
  EXPECT_EQ(build.final_rep_count_mstar, 1u);
  // 2 tree levels down + 2 broadcast levels = 2*ceil(log_129 1024) = 4.
  EXPECT_EQ(build.annotated.schedule.num_steps(), 4u);
  EXPECT_TRUE(coll::FunctionalExecutor::verify_allreduce(
      build.annotated.schedule, 8));
}

TEST(WrhtBuilder, ForcedGroupSizeHonored) {
  WrhtParams params = params_with(64);
  params.forced_group_size = 4;
  const WrhtBuild build = build_wrht(64, params);
  EXPECT_EQ(build.group_size_m, 4u);
  for (const WrhtLevel& level : build.reduce_levels) {
    for (const Group& group : level.groups) {
      EXPECT_LE(group.size(), 4u);
    }
  }
  EXPECT_TRUE(coll::FunctionalExecutor::verify_allreduce(
      build.annotated.schedule, 16));
}

TEST(WrhtBuilder, ForcedGroupSizeTooBigForSpectrumAborts) {
  WrhtParams params = params_with(4);
  params.forced_group_size = 100;  // floor(100/2) = 50 > 4
  EXPECT_DEATH(build_wrht(256, params), "wavelengths");
}

TEST(WrhtBuilder, SingleWavelengthStillWorks) {
  // w=1: m=3, deep tree, but every group side uses one wavelength.
  const WrhtBuild build = build_wrht(81, params_with(1));
  EXPECT_EQ(build.group_size_m, 3u);
  EXPECT_LE(build.annotated.wavelengths_required, 1u);
  EXPECT_TRUE(coll::FunctionalExecutor::verify_allreduce(
      build.annotated.schedule, 8));
}

TEST(WrhtBuilder, TwoNodes) {
  const WrhtBuild build = build_wrht(2, params_with(64));
  EXPECT_TRUE(coll::FunctionalExecutor::verify_allreduce(
      build.annotated.schedule, 4));
  EXPECT_EQ(build.annotated.schedule.num_steps(), 1u);  // pair all-to-all
}

TEST(PredictedSteps, MatchesPaperFormulaAtDefaultGroupSize) {
  // With the default m = min(N, 2w+1), the builder's step count equals the
  // paper's 2*ceil(log_m N) or 2*ceil(log_m N) - 1.
  for (const std::uint32_t w : {1u, 4u, 16u, 64u}) {
    for (const std::uint32_t n :
         {2u, 3u, 7u, 16u, 64u, 128u, 129u, 130u, 512u, 1024u}) {
      const std::uint32_t m = default_group_size(n, w);
      const std::uint32_t steps = predicted_steps(n, m, w);
      const std::uint32_t log_term = util::ceil_log(m, n);
      EXPECT_TRUE(steps == 2 * log_term || steps == 2 * log_term - 1)
          << "n=" << n << " w=" << w << " m=" << m << " steps=" << steps
          << " 2L=" << 2 * log_term;
    }
  }
}

TEST(PredictedSteps, FarFewerThanRing) {
  // The headline structural claim: 2*ceil(log_m N) << 2(N-1).
  for (const std::uint32_t n : {128u, 256u, 512u, 1024u}) {
    const std::uint32_t steps = predicted_steps(n, default_group_size(n, 64), 64);
    EXPECT_LE(steps, 4u);
    EXPECT_GE((2 * (n - 1)) / steps, 60u) << "n=" << n;
  }
}

TEST(WrhtBuilder, BroadcastMirrorsReduceTopology) {
  const WrhtBuild build = build_wrht(100, params_with(8));
  const auto& steps = build.annotated.schedule.steps();
  const std::size_t tree_levels = build.reduce_levels.size();
  const std::size_t merge = build.merged_with_all_to_all ? 1 : 0;
  ASSERT_EQ(steps.size(), 2 * tree_levels + merge);
  // Level k's reduce step and its mirrored broadcast step carry the same
  // pairs, reversed.
  for (std::size_t level = 0; level < tree_levels; ++level) {
    const auto& reduce = steps[level].transfers;
    const auto& bcast = steps[steps.size() - 1 - level].transfers;
    ASSERT_EQ(reduce.size(), bcast.size());
    for (const coll::Transfer& t : reduce) {
      bool mirrored = false;
      for (const coll::Transfer& u : bcast) {
        if (u.src == t.dst && u.dst == t.src &&
            u.op == coll::TransferOp::kCopy) {
          mirrored = true;
        }
      }
      EXPECT_TRUE(mirrored);
    }
  }
}

// FNV-1a over 64-bit words: a compact fingerprint of builder decisions.
class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void hash_build(Fnv& fnv, const WrhtBuild& build) {
  const AnnotatedSchedule& annotated = build.annotated;
  fnv.add(annotated.schedule.num_steps());
  for (std::size_t s = 0; s < annotated.schedule.num_steps(); ++s) {
    const auto& transfers = annotated.schedule.steps()[s].transfers;
    fnv.add(transfers.size());
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      const PathAssignment& path = annotated.paths[s][i];
      fnv.add(transfers[i].src);
      fnv.add(transfers[i].dst);
      fnv.add(static_cast<std::uint64_t>(path.arc.direction));
      fnv.add(path.arc.first);
      fnv.add(path.arc.length);
      fnv.add(path.lambdas.size());
      for (const optical::WavelengthId lambda : path.lambdas) fnv.add(lambda);
    }
  }
  fnv.add(annotated.lambda_per_step.size());
  for (const std::uint32_t used : annotated.lambda_per_step) fnv.add(used);
  fnv.add(annotated.wavelengths_required);
  fnv.add(build.group_size_m);
  fnv.add(build.final_rep_count_mstar);
  fnv.add(build.merged_with_all_to_all ? 1 : 0);
}

// Pins the builder's routing and wavelength decisions (fresh builds and
// fault-evicting remainder rebuilds) over a seeded corpus of participant
// sets, independently of the runtime.  Any change to First/Best Fit, the
// spectrum map, or the step assembly that moves one wavelength moves this
// hash.
TEST(WrhtBuilderGolden, DecisionsMatchRecordedHash) {
  util::Rng rng(0x57A7E5EED);
  Fnv fnv;
  std::size_t rebuilt = 0;
  std::size_t refused = 0;
  const std::uint32_t wavelengths[] = {1, 2, 8, 64};
  for (const std::uint32_t ring_size : {8u, 13u, 32u, 63u, 64u, 65u, 128u,
                                        200u, 512u, 1024u}) {
    for (const std::uint32_t w : wavelengths) {
      for (const optical::FitPolicy policy :
           {optical::FitPolicy::kFirstFit, optical::FitPolicy::kBestFit}) {
        const int trials = ring_size >= 512 ? 3 : 8;
        for (int trial = 0; trial < trials; ++trial) {
          // A uniformly sized random subset (Floyd's algorithm), ascending.
          const auto k =
              static_cast<std::uint32_t>(2 + rng.next_below(ring_size - 1));
          std::vector<bool> chosen(ring_size, false);
          for (std::uint32_t j = ring_size - k; j < ring_size; ++j) {
            const auto t = static_cast<std::uint32_t>(rng.next_below(j + 1));
            chosen[chosen[t] ? j : t] = true;
          }
          std::vector<topo::NodeId> participants;
          for (std::uint32_t node = 0; node < ring_size; ++node) {
            if (chosen[node]) participants.push_back(node);
          }

          WrhtParams params = params_with(w);
          params.fit_policy = policy;
          const WrhtBuild build =
              build_wrht_among(participants, ring_size, params);
          hash_build(fnv, build);

          const std::size_t steps_done =
              rng.next_below(build.annotated.schedule.num_steps());
          std::vector<topo::NodeId> evicted;
          const std::uint64_t num_evicted = rng.next_below(3);
          for (std::uint64_t e = 0; e < num_evicted; ++e) {
            evicted.push_back(
                participants[rng.next_below(participants.size())]);
          }
          WrhtParams rebuild_params =
              params_with(wavelengths[rng.next_below(4)]);
          rebuild_params.fit_policy = policy;
          const std::optional<WrhtBuild> rest =
              rebuild_wrht_remainder_evicting(build, steps_done, evicted,
                                              ring_size, rebuild_params);
          fnv.add(rest.has_value() ? 1 : 0);
          if (rest.has_value()) {
            hash_build(fnv, *rest);
            ++rebuilt;
          } else {
            ++refused;
          }
        }
      }
    }
  }
  // The corpus reaches both rebuild outcomes.
  EXPECT_GT(rebuilt, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(fnv.value(), 0xB5EE714851E914DEULL);
}

}  // namespace
}  // namespace wrht::core
