// Seed-determinism property: under TrainerConfig::lockstep (with early
// stopping disabled), every protocol's TrainResult is a pure function of the
// config and seeds — run the same config twice and the final parameters
// match byte for byte. This is the precondition the chaos suite's
// replay-from-logged-seed guarantee rests on.
//
// What lockstep buys per protocol:
//   * horovod       — always paced: BSP is the engine's lockstep corner, so
//                     the flag changes nothing
//   * rna / eager   — controller paces compute with one kStep token per
//                     round, so membership and staleness are schedule-free
//   * rna-h         — plus nominal (delay-model-sampled) calibration instead
//                     of wall-clock measurement
//   * ad-psgd /
//     async-ps      — RoundRobinGate serializes iterations into rank order
//   * sgp           — iteration-unique push tags replace parity tags, fixing
//                     the (receiver, iteration) pairing
// Wall-clock-derived fields (wall_seconds, curve, breakdown) are exempt;
// everything the optimizer touched must match exactly.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/network.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna {
namespace {

using train::Protocol;
using train::ProtocolName;
using train::TrainerConfig;
using train::TrainResult;

struct Scenario {
  data::Dataset train;
  data::Dataset val;
  train::ModelFactory factory;
};

Scenario SmallScenario(std::uint64_t seed = 11) {
  Scenario s;
  data::Dataset all = data::MakeGaussianClusters(300, 6, 3, 0.3, seed);
  std::tie(s.train, s.val) = all.SplitHoldout(0.2);
  s.factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{6, 12, 3}, model_seed);
  };
  return s;
}

TrainerConfig LockstepConfig(Protocol protocol) {
  TrainerConfig c;
  c.protocol = protocol;
  c.world = 3;
  c.max_rounds = 6;
  c.batch_size = 8;
  c.lockstep = true;
  // Disable every early-stop path: stopping decisions depend on wall-clock
  // eval timing, which is exactly what lockstep cannot control.
  c.target_loss = -1.0;
  c.patience = 1000000;
  c.calibration_iters = 2;
  c.ps_sync_every = 2;
  return c;
}

void ExpectIdenticalRunsAcross(const TrainerConfig& config_a,
                               const TrainerConfig& config_b) {
  Scenario s = SmallScenario();
  const TrainResult a = core::RunTraining(config_a, s.factory, s.train, s.val);
  const TrainResult b = core::RunTraining(config_b, s.factory, s.train, s.val);

  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    // Bitwise: EXPECT_EQ on floats, not near — the whole point.
    ASSERT_EQ(a.final_params[i], b.final_params[i]) << "param " << i;
  }
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.gradients_applied, b.gradients_applied);
  EXPECT_EQ(a.round_contributors, b.round_contributors);
  EXPECT_EQ(a.live_workers, b.live_workers);
  EXPECT_EQ(a.workers_joined, b.workers_joined);
  EXPECT_EQ(a.workers_left, b.workers_left);
}

void ExpectIdenticalRunsWith(const TrainerConfig& config) {
  ExpectIdenticalRunsAcross(config, config);
}

void ExpectIdenticalRuns(Protocol protocol) {
  SCOPED_TRACE(ProtocolName(protocol));
  ExpectIdenticalRunsWith(LockstepConfig(protocol));
}

TEST(LockstepDeterminism, Horovod) { ExpectIdenticalRuns(Protocol::kHorovod); }

// Horovod is the engine's paced path with the full trigger, and pacing is
// BSP: each member computes one gradient per round against the previous
// round's parameters, and the controller sends its Go only once every token
// is accounted for. So fault-free lockstep Horovod, RNA and eager-SGD run
// the same rounds with every member contributing, and agree bit for bit.
// It is also why no lockstep pin exercises RNA's trigger: under pacing the
// controller never consults its policy.
TEST(LockstepDeterminism, HorovodIsTheEnginesBspCorner) {
  for (const Protocol p : {Protocol::kRna, Protocol::kEagerSgd}) {
    SCOPED_TRACE(ProtocolName(p));
    ExpectIdenticalRunsAcross(LockstepConfig(Protocol::kHorovod),
                              LockstepConfig(p));
  }
}

TEST(LockstepDeterminism, EagerSgd) {
  ExpectIdenticalRuns(Protocol::kEagerSgd);
}

TEST(LockstepDeterminism, AdPsgd) { ExpectIdenticalRuns(Protocol::kAdPsgd); }

TEST(LockstepDeterminism, Rna) { ExpectIdenticalRuns(Protocol::kRna); }

TEST(LockstepDeterminism, RnaHierarchical) {
  ExpectIdenticalRuns(Protocol::kRnaHierarchical);
}

TEST(LockstepDeterminism, Sgp) { ExpectIdenticalRuns(Protocol::kSgp); }

TEST(LockstepDeterminism, CentralizedPs) {
  ExpectIdenticalRuns(Protocol::kCentralizedPs);
}

// Every reduction schedule × wire compression combo must preserve the
// lockstep-determinism property: the collective policy changes the wire
// format and the hop graph, never the schedule-freedom of the run.
using PolicyParam =
    std::tuple<collectives::Schedule, collectives::Compression>;

class PolicyDeterminism : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(PolicyDeterminism, IdenticalRunsUnderRna) {
  const auto [schedule, compression] = GetParam();
  TrainerConfig config = LockstepConfig(Protocol::kRna);
  config.schedule = schedule;
  config.compression = compression;
  config.topk_fraction = 0.25;
  ExpectIdenticalRunsWith(config);
}

// rna-h runs every speed group on the same engine as flat RNA, so each
// group controller computes the straggler verdict kStragglar consumes.
// max_group_size = 2 splits the three equal-speed workers into two groups.
TEST(PolicyDeterminism, HierarchicalStragglarAcrossGroups) {
  TrainerConfig config = LockstepConfig(Protocol::kRnaHierarchical);
  config.schedule = collectives::Schedule::kStragglar;
  config.max_group_size = 2;
  ExpectIdenticalRunsWith(config);
}

std::string PolicyName(const ::testing::TestParamInfo<PolicyParam>& info) {
  const auto [schedule, compression] = info.param;
  return std::string(collectives::ScheduleName(schedule)) + "_" +
         collectives::CompressionName(compression);
}

INSTANTIATE_TEST_SUITE_P(
    ScheduleByCompression, PolicyDeterminism,
    ::testing::Combine(
        ::testing::Values(collectives::Schedule::kRing,
                          collectives::Schedule::kTree,
                          collectives::Schedule::kStragglar),
        ::testing::Values(collectives::Compression::kNone,
                          collectives::Compression::kFp16,
                          collectives::Compression::kInt8,
                          collectives::Compression::kTopK)),
    PolicyName);

// Elastic membership must preserve the property: a scheduled join (with
// its leader state transfer) and a scheduled leave land on deterministic
// round boundaries, so two runs of the same churn schedule are bitwise
// identical for every protocol that supports elasticity.
TrainerConfig ElasticConfig(Protocol protocol) {
  TrainerConfig c = LockstepConfig(protocol);
  c.world = 4;
  c.max_rounds = 8;
  c.elastic.push_back({.rank = 3, .join_at_round = 2});
  c.elastic.push_back({.rank = 1, .join_at_round = 0, .leave_at_round = 5});
  return c;
}

TEST(ElasticDeterminism, Rna) {
  ExpectIdenticalRunsWith(ElasticConfig(Protocol::kRna));
}

TEST(ElasticDeterminism, EagerSgd) {
  ExpectIdenticalRunsWith(ElasticConfig(Protocol::kEagerSgd));
}

TEST(ElasticDeterminism, RnaHierarchicalWithShardedPsTree) {
  TrainerConfig c = ElasticConfig(Protocol::kRnaHierarchical);
  c.ps_shards = 3;
  c.ps_fan_in = 2;
  c.max_group_size = 2;  // force several groups even when speeds match
  ExpectIdenticalRunsWith(c);
}

TEST(ElasticDeterminism, CentralizedPs) {
  TrainerConfig c = ElasticConfig(Protocol::kCentralizedPs);
  c.ps_shards = 2;
  ExpectIdenticalRunsWith(c);
}

// Flat RNA is the engine with one group and no round hook; rna-h with one
// speed group and no PS syncs is the same engine run, so the two protocols
// must agree bit for bit — with and without membership churn.
TEST(LockstepDeterminism, FlatRnaEqualsOneGroupHierarchical) {
  for (const bool elastic : {false, true}) {
    SCOPED_TRACE(elastic ? "elastic" : "plain");
    TrainerConfig flat = elastic ? ElasticConfig(Protocol::kRna)
                                 : LockstepConfig(Protocol::kRna);
    flat.ps_sync_every = 0;
    TrainerConfig hier = flat;
    hier.protocol = Protocol::kRnaHierarchical;
    ExpectIdenticalRunsAcross(flat, hier);
  }
}

// Protocols without an elastic path must reject the schedule up front with
// a deterministic diagnostic — not accept it and silently ignore it.
TEST(ElasticDeterminism, UnsupportedProtocolsRejectSchedules) {
  for (const Protocol p :
       {Protocol::kHorovod, Protocol::kSgp, Protocol::kAdPsgd}) {
    SCOPED_TRACE(ProtocolName(p));
    const TrainerConfig c = ElasticConfig(p);
    EXPECT_NE(c.Validate().find("cannot change membership mid-training"),
              std::string::npos);
  }
}

TEST(ElasticDeterminism, RejectedWithoutLockstep) {
  TrainerConfig c = ElasticConfig(Protocol::kRna);
  c.lockstep = false;
  EXPECT_NE(c.Validate().find("requires lockstep"), std::string::npos);
}

// The streaming data plane's contract: each generator's batch stream is a
// pure function of its seed, so the prefetch depth — 0 (synchronous),
// shallow, or deep — must not move a single bit of the trained result.
TEST(LockstepDeterminism, PrefetchDepthInvariant) {
  for (const Protocol p : {Protocol::kRna, Protocol::kHorovod}) {
    SCOPED_TRACE(ProtocolName(p));
    TrainerConfig synchronous = LockstepConfig(p);
    synchronous.prefetch_batches = 0;
    TrainerConfig prefetched = LockstepConfig(p);
    prefetched.prefetch_batches = 3;
    ExpectIdenticalRunsAcross(synchronous, prefetched);
  }
}

TEST(LockstepDeterminism, DifferentSeedsActuallyDiverge) {
  // Sanity check that the property above is not vacuous (e.g. a runner
  // ignoring its inputs would pass every identity test).
  Scenario s = SmallScenario();
  TrainerConfig config = LockstepConfig(Protocol::kRna);
  const TrainResult a = core::RunTraining(config, s.factory, s.train, s.val);
  config.seed = 4242;
  config.model_seed = 4243;
  const TrainResult b = core::RunTraining(config, s.factory, s.train, s.val);
  ASSERT_EQ(a.final_params.size(), b.final_params.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.final_params.size(); ++i) {
    any_diff |= a.final_params[i] != b.final_params[i];
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace rna
