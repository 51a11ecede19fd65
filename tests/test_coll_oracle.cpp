// The subset all-reduce oracle materializes only the rows a proof can
// observe.  These tests hold it to the full-ring proof it replaced: on
// seeded Wrht builds over random subsets of a 64-node ring, and on
// evicting-rebuild composites, the compact verdict (ok flag and message)
// must equal a reference that runs FunctionalExecutor over all N rows with
// the same per-node payloads — and seeded single mutations of a correct
// schedule must fail both.  Bad oracle inputs abort.
#include "coll/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "coll/executor.hpp"
#include "util/random.hpp"
#include "wrht/builder.hpp"

namespace wrht::coll {
namespace {

constexpr std::uint32_t kRing = 64;
constexpr std::size_t kLen = 24;
constexpr std::uint64_t kSeed = 7;  // the oracle's default

/// The full-ring proof: every node of the schedule gets its fill_payload
/// row, the executor runs over all of them, and every node is checked
/// against the contract — recipients hold the contributors' sum,
/// non-contributors their initial vector.
OracleResult reference_among(const Schedule& schedule,
                             const std::vector<NodeId>& contributors,
                             const std::vector<NodeId>& recipients,
                             const std::string& what) {
  const std::uint32_t n = schedule.num_nodes();
  std::vector<std::vector<double>> data(n, std::vector<double>(kLen));
  for (NodeId node = 0; node < n; ++node) {
    fill_payload(kSeed, node, data[node]);
  }
  const std::vector<std::vector<double>> initial = data;
  std::vector<bool> is_contributor(n, false);
  std::vector<bool> is_recipient(n, false);
  std::vector<double> expected(kLen, 0.0);
  for (const NodeId node : contributors) {
    is_contributor[node] = true;
    for (std::size_t e = 0; e < kLen; ++e) expected[e] += initial[node][e];
  }
  for (const NodeId node : recipients) is_recipient[node] = true;
  FunctionalExecutor::run(schedule, data);
  for (NodeId node = 0; node < n; ++node) {
    // Evicted contributors (contributor, not recipient): unspecified.
    if (!is_recipient[node] && is_contributor[node]) continue;
    for (std::size_t e = 0; e < kLen; ++e) {
      const double want = is_recipient[node] ? expected[e] : initial[node][e];
      if (data[node][e] != want) {
        return OracleResult{
            false, "schedule '" + schedule.name() + "': " +
                       (is_recipient[node] ? what
                                           : "non-participant was written") +
                       " at node " + std::to_string(node) + " element " +
                       std::to_string(e)};
      }
    }
  }
  return OracleResult{};
}

/// Compact and reference verdicts on one input; returns the compact one.
OracleResult expect_agreement(const Schedule& schedule,
                              const std::vector<NodeId>& participants) {
  const OracleResult compact =
      Oracle::verify_allreduce_among(schedule, participants, kLen);
  const OracleResult full = reference_among(
      schedule, participants, participants, "subset all-reduce mismatch");
  EXPECT_EQ(compact.ok, full.ok) << full.message;
  EXPECT_EQ(compact.message, full.message);
  return compact;
}

OracleResult expect_agreement(const Schedule& schedule,
                              const std::vector<NodeId>& contributors,
                              const std::vector<NodeId>& recipients) {
  const OracleResult compact = Oracle::verify_allreduce_among(
      schedule, contributors, recipients, kLen);
  const OracleResult full = reference_among(
      schedule, contributors, recipients, "survivor all-reduce mismatch");
  EXPECT_EQ(compact.ok, full.ok) << full.message;
  EXPECT_EQ(compact.message, full.message);
  return compact;
}

/// A sorted random subset of the ring with 2..max_size members.
std::vector<NodeId> random_subset(util::Rng& rng, std::uint32_t max_size) {
  std::vector<NodeId> all(kRing);
  std::iota(all.begin(), all.end(), 0);
  const auto size = static_cast<std::uint32_t>(2 + rng.next_below(max_size - 1));
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto j = i + static_cast<std::uint32_t>(rng.next_below(kRing - i));
    std::swap(all[i], all[j]);
  }
  std::vector<NodeId> subset(all.begin(), all.begin() + size);
  std::sort(subset.begin(), subset.end());
  return subset;
}

core::WrhtParams params_for(std::uint32_t wavelengths) {
  core::WrhtParams params;
  params.num_wavelengths = wavelengths;
  return params;
}

std::uint32_t random_width(util::Rng& rng) {
  return 1u << rng.next_below(5);  // 1, 2, 4, 8, 16
}

/// `prefix`'s first `steps_done` steps followed by all of `remainder`.
Schedule compose(const Schedule& prefix, std::size_t steps_done,
                 const Schedule& remainder) {
  Schedule out("composite", prefix.num_nodes(), prefix.num_chunks());
  for (std::size_t s = 0; s < steps_done; ++s) {
    out.add_step();
    for (const Transfer& t : prefix.steps()[s].transfers) out.add_transfer(t);
  }
  for (const Step& step : remainder.steps()) {
    out.add_step();
    for (const Transfer& t : step.transfers) out.add_transfer(t);
  }
  return out;
}

enum class Mutation { kDrop, kDuplicateReduce, kRetarget, kFlipOp };

/// `schedule` with one seeded mutation applied at a random transfer (of
/// the op the mutation needs); nullopt when no transfer qualifies.
std::optional<Schedule> mutate(const Schedule& schedule, Mutation mutation,
                               const std::vector<NodeId>& participants,
                               util::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> sites;
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    const std::vector<Transfer>& transfers = schedule.steps()[s].transfers;
    for (std::size_t k = 0; k < transfers.size(); ++k) {
      if (mutation != Mutation::kDuplicateReduce ||
          transfers[k].op == TransferOp::kReduce) {
        sites.emplace_back(s, k);
      }
    }
  }
  if (sites.empty()) return std::nullopt;
  const auto [site_step, site_k] = sites[rng.next_below(sites.size())];

  std::vector<NodeId> outsiders;
  for (NodeId node = 0; node < schedule.num_nodes(); ++node) {
    if (!std::binary_search(participants.begin(), participants.end(), node)) {
      outsiders.push_back(node);
    }
  }
  if (mutation == Mutation::kRetarget && outsiders.empty()) return std::nullopt;

  Schedule out(schedule.name(), schedule.num_nodes(), schedule.num_chunks());
  for (std::size_t s = 0; s < schedule.num_steps(); ++s) {
    out.add_step();
    const std::vector<Transfer>& transfers = schedule.steps()[s].transfers;
    for (std::size_t k = 0; k < transfers.size(); ++k) {
      Transfer t = transfers[k];
      if (s == site_step && k == site_k) {
        switch (mutation) {
          case Mutation::kDrop:
            continue;
          case Mutation::kDuplicateReduce:
            out.add_transfer(t);
            break;
          case Mutation::kRetarget:
            t.dst = outsiders[rng.next_below(outsiders.size())];
            break;
          case Mutation::kFlipOp:
            t.op = t.op == TransferOp::kReduce ? TransferOp::kCopy
                                               : TransferOp::kReduce;
            break;
        }
      }
      out.add_transfer(t);
    }
  }
  return out;
}

TEST(OracleDifferential, RandomSubsetBuildsAgreeWithFullRing) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<NodeId> participants =
        random_subset(rng, trial % 4 == 0 ? kRing : 16);
    const core::WrhtBuild build =
        core::build_wrht_among(participants, kRing, params_for(random_width(rng)));
    const OracleResult verdict =
        expect_agreement(build.annotated.schedule, participants);
    EXPECT_TRUE(verdict.ok) << "trial " << trial << ": " << verdict.message;
  }
}

TEST(OracleDifferential, EvictingRebuildCompositesAgreeWithFullRing) {
  util::Rng rng(99);
  int evicting = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<NodeId> participants = random_subset(rng, 24);
    const core::WrhtBuild build =
        core::build_wrht_among(participants, kRing, params_for(random_width(rng)));
    const Schedule& schedule = build.annotated.schedule;
    const std::size_t cut = rng.next_below(schedule.num_steps());
    const NodeId gone = participants[rng.next_below(participants.size())];
    const std::optional<core::WrhtBuild> rebuilt =
        core::rebuild_wrht_remainder_evicting(build, cut, {gone}, kRing,
                                              params_for(random_width(rng)));
    if (!rebuilt) continue;  // gone still held live partials: a restart
    ++evicting;
    std::vector<NodeId> survivors;
    for (const NodeId node : participants) {
      if (node != gone) survivors.push_back(node);
    }
    const Schedule composite =
        compose(schedule, cut, rebuilt->annotated.schedule);
    const OracleResult verdict =
        expect_agreement(composite, participants, survivors);
    EXPECT_TRUE(verdict.ok) << "trial " << trial << ": " << verdict.message;
    // Held to delivery at every participant, the evicted one included,
    // the two proofs must still say the same, pass or fail.
    expect_agreement(composite, participants);
  }
  EXPECT_GT(evicting, 50);
}

TEST(OracleDifferential, SeededMutationsFailBothProofs) {
  util::Rng rng(7);
  int mutated = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<NodeId> participants = random_subset(rng, 16);
    const core::WrhtBuild build =
        core::build_wrht_among(participants, kRing, params_for(random_width(rng)));
    for (const Mutation mutation :
         {Mutation::kDrop, Mutation::kDuplicateReduce, Mutation::kRetarget,
          Mutation::kFlipOp}) {
      const std::optional<Schedule> broken =
          mutate(build.annotated.schedule, mutation, participants, rng);
      if (!broken) continue;
      ++mutated;
      const OracleResult verdict = expect_agreement(*broken, participants);
      EXPECT_FALSE(verdict.ok)
          << "trial " << trial << " mutation " << static_cast<int>(mutation);
    }
  }
  EXPECT_GT(mutated, 700);
}

TEST(OracleDifferential, RelayThroughNonParticipantIsCaught) {
  // 0 and 2 all-reduce by relaying through node 1, which ends holding
  // node 0's vector: the sum is right, the bystander is not.
  Schedule relay("relay", kRing, 1);
  relay.add_step();
  relay.add_transfer({0, 1, 0, TransferOp::kCopy});
  relay.add_step();
  relay.add_transfer({1, 2, 0, TransferOp::kReduce});
  relay.add_step();
  relay.add_transfer({2, 0, 0, TransferOp::kCopy});
  const OracleResult verdict = expect_agreement(relay, {0, 2});
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.message.find("non-participant was written at node 1"),
            std::string::npos)
      << verdict.message;
}

TEST(OracleDifferential, UntouchedRingStaysUntouched) {
  // A two-node exchange on the ring: only its two rows exist in the
  // compact proof, and both proofs pass.
  Schedule pair("pair", kRing, 1);
  pair.add_step();
  pair.add_transfer({5, 9, 0, TransferOp::kReduce});
  pair.add_transfer({9, 5, 0, TransferOp::kReduce});
  EXPECT_TRUE(expect_agreement(pair, {5, 9}).ok);
}

TEST(OracleInputs, RejectsOutOfRangeNodes) {
  Schedule pair("pair", 8, 1);
  pair.add_step();
  pair.add_transfer({0, 1, 0, TransferOp::kReduce});
  const std::vector<NodeId> in_range{0, 1};
  const std::vector<NodeId> past_end{0, 8};
  const std::vector<NodeId> far_past_end{0, 9};
  const std::vector<NodeId> stray_recipient{1, 12};
  EXPECT_DEATH((void)Oracle::verify_allreduce_among(pair, past_end, kLen),
               "participant 8 out of range");
  EXPECT_DEATH((void)Oracle::verify_allreduce_among(pair, far_past_end,
                                                    in_range, kLen),
               "contributor 9 out of range");
  EXPECT_DEATH((void)Oracle::verify_allreduce_among(pair, in_range,
                                                    stray_recipient, kLen),
               "recipient 12 out of range");
}

TEST(OracleInputs, RejectsDuplicatedParticipants) {
  // Counted twice, a duplicate would skew the expected sum and fail a
  // correct schedule with a misleading mismatch.
  Schedule pair("pair", 8, 1);
  pair.add_step();
  pair.add_transfer({0, 1, 0, TransferOp::kReduce});
  const std::vector<NodeId> twice_zero{0, 1, 0};
  const std::vector<NodeId> twice_one{1, 0, 1};
  const std::vector<NodeId> zero{0};
  EXPECT_DEATH((void)Oracle::verify_allreduce_among(pair, twice_zero, kLen),
               "participant 0 listed twice");
  EXPECT_DEATH(
      (void)Oracle::verify_allreduce_among(pair, twice_one, zero, kLen),
      "contributor 1 listed twice");
}

TEST(OracleInputs, RejectsRecipientsOutsideTheContributors) {
  Schedule pair("pair", 8, 1);
  pair.add_step();
  pair.add_transfer({0, 1, 0, TransferOp::kReduce});
  const std::vector<NodeId> contributors{0, 1};
  const std::vector<NodeId> recipients{1, 3};
  EXPECT_DEATH((void)Oracle::verify_allreduce_among(pair, contributors,
                                                    recipients, kLen),
               "recipient 3 is not a contributor");
}

}  // namespace
}  // namespace wrht::coll
