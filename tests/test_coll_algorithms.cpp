// Correctness of every baseline all-reduce schedule, proven by actually
// executing the schedules on payload vectors (the functional oracle), plus
// structural properties: step counts, traffic volumes, validation.
#include "coll/algorithms.hpp"

#include <gtest/gtest.h>

#include <set>

#include "coll/executor.hpp"
#include "coll/validation.hpp"
#include "util/math.hpp"

namespace wrht::coll {
namespace {

using Builder = Schedule (*)(std::uint32_t);

struct AlgoCase {
  const char* name;
  Builder build;
};

const AlgoCase kAlgos[] = {
    {"ring", &ring_allreduce},
    {"recursive_doubling", &recursive_doubling},
    {"halving_doubling", &halving_doubling},
    {"binomial_tree", &binomial_tree},
    {"direct", &direct_allreduce},
    {"naive_ring", &naive_ring},
};

class AllAlgorithms
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {
 protected:
  const AlgoCase& algo() const { return kAlgos[std::get<0>(GetParam())]; }
  std::uint32_t nodes() const { return std::get<1>(GetParam()); }
};

TEST_P(AllAlgorithms, ComputesAllReduce) {
  const Schedule schedule = algo().build(nodes());
  const auto result = FunctionalExecutor::verify_allreduce_detailed(
      schedule, /*payload_len=*/64);
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_P(AllAlgorithms, PassesStructuralValidation) {
  const Schedule schedule = algo().build(nodes());
  const ValidationReport report = validate(schedule);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_P(AllAlgorithms, PayloadSmallerThanChunksStillWorks) {
  const Schedule schedule = algo().build(nodes());
  // A payload of exactly num_chunks elements gives 1-element chunks.
  EXPECT_TRUE(
      FunctionalExecutor::verify_allreduce(schedule, schedule.num_chunks()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllAlgorithms,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(2u, 3u, 4u, 5u, 7u, 8u, 12u, 16u, 17u,
                                         31u, 32u, 33u, 64u)),
    [](const ::testing::TestParamInfo<AllAlgorithms::ParamType>& param_info) {
      return std::string(kAlgos[std::get<0>(param_info.param)].name) + "_n" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(RingAllReduce, StepAndChunkCounts) {
  for (const std::uint32_t n : {2u, 5u, 16u, 100u}) {
    const Schedule schedule = ring_allreduce(n);
    EXPECT_EQ(schedule.num_steps(), 2u * (n - 1));
    EXPECT_EQ(schedule.num_chunks(), n);
    EXPECT_EQ(schedule.total_transfers(), std::size_t{2} * (n - 1) * n);
  }
}

TEST(RingAllReduce, TrafficIsBandwidthOptimal) {
  // Each of the 2(n-1) steps carries n chunks of D/n bytes, so the total
  // wire traffic is 2 (n-1) D — each node moves 2 D (n-1)/n bytes.
  const std::uint32_t n = 8;
  const util::Bytes payload(8000);
  const Schedule schedule = ring_allreduce(n);
  EXPECT_EQ(schedule.total_traffic(payload).count(),
            2ull * (n - 1) * payload.count());
}

TEST(RingAllReduce, EachStepIsNeighborOnly) {
  const std::uint32_t n = 9;
  const Schedule schedule = ring_allreduce(n);
  for (const Step& step : schedule.steps()) {
    EXPECT_EQ(step.transfers.size(), n);
    for (const Transfer& t : step.transfers) {
      EXPECT_EQ(t.dst, (t.src + 1) % n);
    }
  }
}

TEST(RecursiveDoubling, StepCountPowerOfTwo) {
  EXPECT_EQ(recursive_doubling(8).num_steps(), 3u);
  EXPECT_EQ(recursive_doubling(64).num_steps(), 6u);
}

TEST(RecursiveDoubling, StepCountNonPowerOfTwoAddsFoldUnfold) {
  EXPECT_EQ(recursive_doubling(5).num_steps(), 2u + 2u);
  EXPECT_EQ(recursive_doubling(12).num_steps(), 3u + 2u);
}

TEST(RecursiveDoubling, EveryCoreStepIsFullExchange) {
  const Schedule schedule = recursive_doubling(8);
  for (const Step& step : schedule.steps()) {
    EXPECT_EQ(step.transfers.size(), 8u);
    for (const Transfer& t : step.transfers) {
      // Partner relation is symmetric.
      bool reverse_found = false;
      for (const Transfer& u : step.transfers) {
        if (u.src == t.dst && u.dst == t.src) reverse_found = true;
      }
      EXPECT_TRUE(reverse_found);
    }
  }
}

TEST(HalvingDoubling, StepCountPowerOfTwo) {
  EXPECT_EQ(halving_doubling(8).num_steps(), 6u);
  EXPECT_EQ(halving_doubling(16).num_steps(), 8u);
}

TEST(HalvingDoubling, TrafficMatchesRingOrder) {
  // Rabenseifner moves 2 D (n-1)/n per node, same order as ring.
  const std::uint32_t n = 8;
  const util::Bytes payload(8000);
  const std::uint64_t ring_traffic =
      ring_allreduce(n).total_traffic(payload).count();
  const std::uint64_t hd_traffic =
      halving_doubling(n).total_traffic(payload).count();
  EXPECT_EQ(hd_traffic, ring_traffic);
}

TEST(BinomialTree, StepCount) {
  EXPECT_EQ(binomial_tree(8).num_steps(), 6u);
  EXPECT_EQ(binomial_tree(9).num_steps(), 8u);
  EXPECT_EQ(binomial_tree(2).num_steps(), 2u);
}

TEST(BinomialTree, RootReceivesEverything) {
  const Schedule schedule = binomial_tree(16);
  // Node 0 never sends during the reduce half.
  const std::size_t reduce_steps = schedule.num_steps() / 2;
  for (std::size_t s = 0; s < reduce_steps; ++s) {
    for (const Transfer& t : schedule.steps()[s].transfers) {
      EXPECT_NE(t.src, 0u);
      EXPECT_EQ(t.op, TransferOp::kReduce);
    }
  }
}

TEST(DirectAllReduce, OneStepAllPairs) {
  const std::uint32_t n = 6;
  const Schedule schedule = direct_allreduce(n);
  EXPECT_EQ(schedule.num_steps(), 1u);
  EXPECT_EQ(schedule.total_transfers(), std::size_t{n} * (n - 1));
}

TEST(NaiveRing, SequentialSteps) {
  const std::uint32_t n = 7;
  const Schedule schedule = naive_ring(n);
  EXPECT_EQ(schedule.num_steps(), 2u * (n - 1));
  for (const Step& step : schedule.steps()) {
    EXPECT_EQ(step.transfers.size(), 1u);
  }
}

class HierarchicalSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(HierarchicalSweep, ComputesAllReduce) {
  const auto [n, g] = GetParam();
  const Schedule schedule = hierarchical_allreduce(n, g);
  const auto result =
      FunctionalExecutor::verify_allreduce_detailed(schedule, 48);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(validate(schedule).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierarchicalSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 7u, 8u, 15u, 16u, 32u, 48u),
                       ::testing::Values(1u, 2u, 4u, 7u, 8u, 64u)),
    [](const auto& param_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_g";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

TEST(Hierarchical, StepStructure) {
  // 32 nodes in groups of 8: 3 intra-reduce rounds + 2 RD rounds among 4
  // leaders + 3 intra-broadcast rounds.
  const Schedule schedule = hierarchical_allreduce(32, 8);
  EXPECT_EQ(schedule.num_steps(), 3u + 2u + 3u);
}

TEST(Hierarchical, GroupsWorkInParallel) {
  // Round 0 of the reduce phase must contain transfers from every group.
  const Schedule schedule = hierarchical_allreduce(32, 8);
  std::set<std::uint32_t> groups_seen;
  for (const Transfer& t : schedule.steps()[0].transfers) {
    groups_seen.insert(t.dst / 8);
  }
  EXPECT_EQ(groups_seen.size(), 4u);
}

TEST(Hierarchical, FewerBottleneckBytesThanFlatRecursiveDoubling) {
  // With groups, only leaders exchange full vectors across the cluster:
  // total traffic is lower than flat RD at the same N.
  const std::uint32_t n = 64;
  const util::Bytes payload(64'000);
  EXPECT_LT(hierarchical_allreduce(n, 8).total_traffic(payload).count(),
            recursive_doubling(n).total_traffic(payload).count());
}

TEST(AllAlgorithmsLarge, CorrectAtN128) {
  // One larger sanity point per algorithm (excluding the O(n^2)-transfer
  // direct exchange, which is covered at smaller n).
  for (const AlgoCase& algo : kAlgos) {
    if (std::string(algo.name) == "direct") continue;
    const Schedule schedule = algo.build(128);
    EXPECT_TRUE(FunctionalExecutor::verify_allreduce(schedule, 128))
        << algo.name;
  }
}

}  // namespace
}  // namespace wrht::coll
