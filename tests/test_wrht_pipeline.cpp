#include "wrht/pipeline.hpp"

#include <gtest/gtest.h>

#include "coll/executor.hpp"
#include "coll/validation.hpp"
#include "optical/spectrum.hpp"
#include "util/math.hpp"
#include "wrht/builder.hpp"
#include "wrht/executor.hpp"
#include "wrht/time_model.hpp"

namespace wrht::core {
namespace {

WrhtPipelineParams pipeline_params(std::uint32_t w, std::uint32_t segments) {
  WrhtPipelineParams params;
  params.num_wavelengths = w;
  params.num_segments = segments;
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

class PipelineSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> {
 protected:
  std::uint32_t nodes() const { return std::get<0>(GetParam()); }
  std::uint32_t wavelengths() const { return std::get<1>(GetParam()); }
  std::uint32_t segments() const { return std::get<2>(GetParam()); }
};

TEST_P(PipelineSweep, ComputesAllReduce) {
  const WrhtPipelineBuild build = build_wrht_pipelined(
      nodes(), pipeline_params(wavelengths(), segments()));
  const auto result = coll::FunctionalExecutor::verify_allreduce_detailed(
      build.annotated.schedule, std::max<std::size_t>(64, segments()));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_P(PipelineSweep, StepCountIsStagesPlusSegments) {
  const WrhtPipelineBuild build = build_wrht_pipelined(
      nodes(), pipeline_params(wavelengths(), segments()));
  // The builder may degrade the segment count to fit a tight spectrum, but
  // never increases it, and the step formula holds for what it built.
  EXPECT_GE(build.num_segments, 1u);
  EXPECT_LE(build.num_segments, segments());
  EXPECT_EQ(build.annotated.schedule.num_steps(),
            2 * build.tree_levels + build.num_segments - 1);
  EXPECT_EQ(build.tree_levels,
            util::ceil_log(build.group_size_m, nodes()));
}

TEST_P(PipelineSweep, SpectrumFeasibleAndConflictFree) {
  const WrhtPipelineBuild build = build_wrht_pipelined(
      nodes(), pipeline_params(wavelengths(), segments()));
  EXPECT_LE(build.annotated.wavelengths_required, wavelengths());
  expect_conflict_free(build.annotated);
}

TEST_P(PipelineSweep, StructurallyValid) {
  const WrhtPipelineBuild build = build_wrht_pipelined(
      nodes(), pipeline_params(wavelengths(), segments()));
  const coll::ValidationReport report =
      coll::validate(build.annotated.schedule);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Combine(::testing::Values(4u, 9u, 16u, 33u, 64u),
                       ::testing::Values(4u, 16u, 64u),
                       ::testing::Values(1u, 2u, 5u, 16u)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      name += "_s";
      name += std::to_string(std::get<2>(param_info.param));
      return name;
    });

TEST(Pipeline, SingleSegmentMatchesUnmergedWrht) {
  const std::uint32_t n = 64;
  const WrhtPipelineBuild pipelined =
      build_wrht_pipelined(n, pipeline_params(64, 1));
  WrhtParams plain;
  plain.num_wavelengths = 64;
  plain.allow_all_to_all_merge = false;
  const WrhtBuild reference = build_wrht(n, plain);
  EXPECT_EQ(pipelined.annotated.schedule.num_steps(),
            reference.annotated.schedule.num_steps());
  EXPECT_EQ(pipelined.group_size_m, reference.group_size_m);
}

TEST(Pipeline, ShrinksGroupSizeWhenStagesCollide) {
  // With many segments and a tight spectrum, co-active levels cannot all
  // use m = 2w+1; the builder must shrink m rather than fail.
  const WrhtPipelineBuild build =
      build_wrht_pipelined(256, pipeline_params(8, 16));
  EXPECT_LE(build.annotated.wavelengths_required, 8u);
  EXPECT_TRUE(coll::FunctionalExecutor::verify_allreduce(
      build.annotated.schedule, 64));
}

TEST(Pipeline, BeatsPlainWrhtOnHugePayloads) {
  // The reason this extension exists: at ~GB payloads the plain schedule's
  // full-vector serialization per level dominates; pipelining divides it.
  const std::uint32_t n = 256;
  const util::Bytes payload = util::gigabytes(1);
  optical::OpticalParams p;

  WrhtParams plain_params;
  const WrhtBuild plain = build_wrht(n, plain_params);
  const double plain_time =
      analytic_schedule_time(plain.annotated, payload, p).value();

  const std::uint32_t s =
      optimal_segments(n, plain.group_size_m, payload, p);
  EXPECT_GT(s, 1u);
  const WrhtPipelineBuild pipelined =
      build_wrht_pipelined(n, pipeline_params(64, s));
  const double pipelined_time =
      analytic_schedule_time(pipelined.annotated, payload, p).value();

  EXPECT_LT(pipelined_time, plain_time * 0.75)
      << "segments=" << s << " plain=" << plain_time
      << " pipelined=" << pipelined_time;
}

TEST(Pipeline, DesMatchesAnalytic) {
  const WrhtPipelineBuild build =
      build_wrht_pipelined(64, pipeline_params(16, 8));
  optical::OpticalParams p;
  p.wdm.num_wavelengths =
      std::max(16u, build.annotated.wavelengths_required);
  const util::Bytes payload(200'000'000);
  const double des =
      run_on_optical(build.annotated, p, payload).total.value();
  const double analytic =
      analytic_schedule_time(build.annotated, payload, p).value();
  EXPECT_NEAR(des, analytic, analytic * 1e-12);
}

TEST(Pipeline, OptimalSegmentsSaneAcrossRegimes) {
  optical::OpticalParams p;
  // Tiny payload: overhead-dominated, no point pipelining.
  EXPECT_EQ(optimal_segments(1024, 129, util::Bytes(1000), p), 1u);
  // Huge payload: many segments.
  EXPECT_GT(optimal_segments(1024, 129, util::gigabytes(4), p), 8u);
  // Monotone in payload.
  std::uint32_t previous = 0;
  for (const std::uint64_t mb : {1ull, 10ull, 100ull, 1000ull, 10000ull}) {
    const std::uint32_t s =
        optimal_segments(1024, 129, util::megabytes(mb), p);
    EXPECT_GE(s, previous);
    previous = s;
  }
}

TEST(Pipeline, TimeIsConvexishInSegments) {
  // T(S) should fall then rise around the analytic optimum.
  const std::uint32_t n = 128;
  const util::Bytes payload = util::gigabytes(2);
  optical::OpticalParams p;
  double best = 1e100;
  std::uint32_t best_s = 0;
  for (const std::uint32_t s : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const WrhtPipelineBuild build =
        build_wrht_pipelined(n, pipeline_params(64, s));
    const double t =
        analytic_schedule_time(build.annotated, payload, p).value();
    if (t < best) {
      best = t;
      best_s = s;
    }
  }
  EXPECT_GT(best_s, 1u);
  EXPECT_LT(best_s, 128u);
}

}  // namespace
}  // namespace wrht::core
