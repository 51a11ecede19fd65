#include "wrht/primitives.hpp"

#include <gtest/gtest.h>

#include "coll/oracle.hpp"
#include "optical/spectrum.hpp"
#include "util/math.hpp"
#include "wrht/executor.hpp"

namespace wrht::core {
namespace {

WrhtParams params_with(std::uint32_t w) {
  WrhtParams params;
  params.num_wavelengths = w;
  return params;
}

void expect_conflict_free(const AnnotatedSchedule& annotated) {
  const topo::RingTopology ring(annotated.schedule.num_nodes());
  for (const auto& step : annotated.paths) {
    optical::SpectrumMap spectrum(
        ring, std::max(1u, annotated.wavelengths_required));
    for (const PathAssignment& path : step) {
      for (const optical::WavelengthId lambda : path.lambdas) {
        ASSERT_TRUE(spectrum.is_free(path.arc, lambda));
        spectrum.reserve(path.arc, lambda);
      }
    }
  }
}

class WrhtReduceSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(WrhtReduceSweep, ReducesToRoot) {
  const auto [n, w] = GetParam();
  const WrhtReduceBuild build = build_wrht_reduce(n, params_with(w));
  const coll::OracleResult result =
      coll::Oracle::verify_reduce(build.annotated.schedule, build.root, 32);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_LE(build.annotated.wavelengths_required, w);
  expect_conflict_free(build.annotated);
  // Reduce alone is exactly the tree depth.
  EXPECT_EQ(build.annotated.schedule.num_steps(),
            util::ceil_log(build.group_size_m, n));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WrhtReduceSweep,
    ::testing::Combine(::testing::Values(2u, 5u, 16u, 33u, 64u, 128u),
                       ::testing::Values(2u, 8u, 64u)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

class WrhtBroadcastSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, topo::NodeId>> {};

TEST_P(WrhtBroadcastSweep, BroadcastsFromRoot) {
  const auto [n, w, root_seed] = GetParam();
  const topo::NodeId root = root_seed % n;
  const WrhtBroadcastBuild build =
      build_wrht_broadcast(n, root, params_with(w));
  EXPECT_EQ(build.root, root);
  const coll::OracleResult result =
      coll::Oracle::verify_broadcast(build.annotated.schedule, root, 32);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_LE(build.annotated.wavelengths_required, w);
  expect_conflict_free(build.annotated);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WrhtBroadcastSweep,
    ::testing::Combine(::testing::Values(2u, 5u, 16u, 33u, 64u, 128u),
                       ::testing::Values(2u, 8u, 64u),
                       ::testing::Values(0u, 1u, 7u, 100u)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      name += "_r";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

TEST(WrhtReduce, RootIsTopRepresentative) {
  const WrhtReduceBuild build = build_wrht_reduce(128, params_with(64));
  // Single group of 128: the middle node.
  EXPECT_EQ(build.root, 64u);
  EXPECT_EQ(build.annotated.schedule.num_steps(), 1u);
}

TEST(WrhtBroadcast, RunsOnOpticalNetwork) {
  const WrhtBroadcastBuild build =
      build_wrht_broadcast(100, 37, params_with(16));
  optical::OpticalParams p;
  p.wdm.num_wavelengths = 16;
  const optical::RunResult run =
      run_on_optical(build.annotated, p, util::megabytes(50));
  EXPECT_GT(run.total.value(), 0.0);
  EXPECT_EQ(run.steps.size(), build.annotated.schedule.num_steps());
}

TEST(WrhtBroadcast, HalfTheStepsOfAllReduce) {
  const std::uint32_t n = 200;
  const WrhtParams params = params_with(8);
  WrhtParams no_merge = params;
  no_merge.allow_all_to_all_merge = false;
  const WrhtBuild full = build_wrht(n, no_merge);
  const WrhtBroadcastBuild bcast = build_wrht_broadcast(n, 0, params);
  EXPECT_EQ(bcast.annotated.schedule.num_steps() * 2,
            full.annotated.schedule.num_steps());
}

TEST(WrhtBroadcast, RotationPreservesWavelengthCounts) {
  const std::uint32_t n = 90;
  for (const topo::NodeId root : {0u, 13u, 45u, 89u}) {
    const WrhtBroadcastBuild build =
        build_wrht_broadcast(n, root, params_with(8));
    EXPECT_LE(build.annotated.wavelengths_required, 8u) << "root=" << root;
  }
}

}  // namespace
}  // namespace wrht::core
