#pragma once

// The partial-collective training engine (§3 of the paper, generalized):
//
//   * every worker runs a compute thread and a communication thread
//     (cross-iteration training, Figure 4);
//   * compute threads run mini-batches back-to-back against the newest
//     parameters their group published, buffering gradients in a
//     GradientStage and notifying their group's controller
//     ("instantaneous progress information", §3);
//   * each group's controller decides *when to trigger* a synchronization
//     round through a pluggable TriggerPolicy, then broadcasts an external
//     activation forcing every member's communication thread into the
//     partial ring allreduce — ready or not; absent workers contribute
//     null gradients;
//   * the reduced gradient is re-weighted by W = 1/Σw and applied with the
//     Linear-Scaling-Rule learning rate on every member identically, so
//     a group's replicas stay bit-identical.
//
// The engine is group-scoped. RunPartialCollective is one group holding
// every worker — RNA's power-of-q-choices election (rna::core) and
// eager-SGD's majority rule (rna::baselines) are both TriggerPolicies on
// it. Hierarchical RNA (§4) runs one group per speed class through
// RunPartialCollectiveGroups and bridges them with a RoundHook, which runs
// on every member after its optimizer step and before the round leader
// publishes the group model.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rna/collectives/options.hpp"
#include "rna/data/dataset.hpp"
#include "rna/net/fabric.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"
#include "rna/train/sharding.hpp"
#include "rna/train/worker.hpp"

namespace rna::train {

/// Decides when a group's controller fires the collective, given how many
/// unreduced gradients each member currently has buffered.
class TriggerPolicy {
 public:
  virtual ~TriggerPolicy() = default;

  /// Called once at the start of each round (e.g., to sample fresh probes)
  /// with the group's founding size.
  virtual void BeginRound(std::size_t world, common::Rng& rng) = 0;

  /// `ready.Count(i)` = buffered-gradient count of the group's i-th founding
  /// member (as known from notifications; for a one-group run, rank i);
  /// `ready.ReadyRanks()` is the O(1) sharded aggregate, so a policy
  /// decision never scans the group. Return true to trigger the collective
  /// now.
  virtual bool ShouldTrigger(const ReadinessBoard& ready) = 0;

  virtual const char* Name() const = 0;
};

using TriggerPolicyFactory = std::function<std::unique_ptr<TriggerPolicy>()>;

/// eager-SGD's rule: fire once ⌊N/2⌋+1 workers have a gradient buffered.
std::unique_ptr<TriggerPolicy> MakeMajorityPolicy();

/// solo collective (eager-SGD's aggressive variant): fire on the first
/// ready worker.
std::unique_ptr<TriggerPolicy> MakeSoloPolicy();

/// Wait for everyone (BSP-like trigger, but still cross-iteration) — used
/// as an ablation.
std::unique_ptr<TriggerPolicy> MakeFullPolicy();

/// Runs a full training job under the partial-collective engine: one
/// group of all config.world workers.
TrainResult RunPartialCollective(const TrainerConfig& config,
                                 const ModelFactory& factory,
                                 const data::Dataset& train_data,
                                 const data::Dataset& val_data,
                                 const TriggerPolicyFactory& policy_factory);

/// One synchronization group: its members train with their own controller,
/// readiness board, membership directory and parameter board.
struct EngineGroup {
  std::vector<net::Rank> members;  ///< founding members, ascending ranks
  std::uint64_t probe_seed = 0;    ///< seeds the controller's trigger RNG
  std::string track;               ///< the controller's trace track
};

/// One member's view of one round, as a RoundHook sees it.
struct MemberRound {
  std::size_t group;
  std::size_t round;
  net::Rank rank;
  const collectives::Group& ring;  ///< this round's members
  std::size_t index;               ///< `rank`'s position; 0 leads the round
  bool reduced;                    ///< the round's collective completed
  std::vector<float>& params;      ///< the member's replica, after the step
  obs::TrackHandle track;          ///< the member's comm track
  common::Seconds* comm_seconds;   ///< the member's comm-time account
};

/// Runs on every member's comm thread, once per round, between the
/// optimizer step and the leader's board publish; whatever it leaves in
/// `params` is what the group trains on next.
using RoundHook = std::function<void(const MemberRound&)>;

struct EngineRun {
  std::vector<std::unique_ptr<WorkerContext>> workers;  ///< one per rank
  std::vector<float> init;                              ///< initial params
  std::vector<EngineGroup> groups;  ///< a partition of the ranks
  TriggerPolicyFactory policy_factory;
  RoundHook round_hook;  ///< optional
  /// Optional: runs on group g's controller thread after it has sent the
  /// group its exit.
  std::function<void(std::size_t group)> controller_exit;
};

/// Runs a training job of one or more groups on `fabric`, whose endpoints
/// are laid out [workers | one controller per group | the caller's own].
/// The caller installs the fault plan and starts its own endpoints'
/// services first. Round accounting (TrainResult::rounds,
/// round_contributors) and the monitor follow the group holding rank 0.
TrainResult RunPartialCollectiveGroups(const TrainerConfig& config,
                                       const ModelFactory& factory,
                                       const data::Dataset& train_data,
                                       const data::Dataset& val_data,
                                       net::Fabric& fabric, EngineRun run);

}  // namespace rna::train
