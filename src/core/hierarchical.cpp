#include <algorithm>
#include <string>
#include <thread>

#include "protocol_impls.hpp"
#include "rna/collectives/ring.hpp"
#include "rna/common/check.hpp"
#include "rna/net/fabric.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/ps/server.hpp"
#include "rna/ps/sharded.hpp"
#include "rna/sim/workload.hpp"
#include "rna/train/fault.hpp"
#include "rna/train/partial_engine.hpp"
#include "rna/train/sharding.hpp"
#include "rna/train/tags.hpp"
#include "rna/train/worker.hpp"

namespace rna::core::detail {

using namespace rna::train;

// Hierarchical synchronization (§4). Workers are partitioned into
// speed-homogeneous groups by the recursive ζ>v rule over calibrated
// iteration times (optionally size-capped for large worlds), and each group
// runs RNA internally on the shared partial-collective engine with its own
// controller. This file adds only the bridge between the groups:
//
//   * a parameter-server tree: a recursive tree of nodes with bounded
//     fan-in (BuildPsTree), each node range-sharded into ps_shards
//     independent servers, every non-root node periodically folding its
//     state into its parent. Groups never barrier against each other — the
//     PS serves them asynchronously in arrival order, which is what defuses
//     the deterministic slowdown that defeats purely probabilistic
//     approaches;
//   * the engine's round hook: each PS-sync round the round's leader
//     stripes the group model across its leaf node's shards
//     (ShardedPsClient), pulls back the running average and broadcasts it
//     inside the group. A sync that exhausts its retry budget is skipped.
//
// Under TrainerConfig::lockstep the grouping is computed from the
// *nominal* delay model (no wall-clock race) and PS syncs are serialized
// into (sync round, group id) order by a RoundRobinGate, so the whole run
// replays bit-identically.
TrainResult RunHierarchicalRna(const TrainerConfig& config,
                               const ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data) {
  const std::size_t world = config.world;
  RNA_CHECK_MSG(world >= 1, "need at least one worker");

  EngineRun run;
  run.workers = MakeWorkers(config, factory, train_data);
  run.init = InitialParams(config, factory);
  const std::vector<float>& init = run.init;
  const std::size_t dim = run.workers[0]->Dim();

  const bool faulty = config.fault.Enabled();
  const bool lockstep = config.lockstep;

  // ---- calibration + grouping (ζ > v rule) ------------------------------
  std::vector<double> iter_times(world);
  const std::size_t calib = std::max<std::size_t>(1, config.calibration_iters);
  if (lockstep) {
    // Deterministic calibration: average the injected-delay model's nominal
    // samples (same seed stream the workers will use) instead of racing
    // wall clocks, so the grouping replays bit-identically.
    for (std::size_t w = 0; w < world; ++w) {
      double sum = 0.0;
      if (config.delay_model) {
        common::Rng rng(config.seed + 2000 + 97 * w);
        for (std::size_t i = 0; i < calib; ++i) {
          sum += config.delay_model->Sample(w, i, rng) * config.delay_scale;
        }
      }
      iter_times[w] = sum / static_cast<double>(calib);
    }
  } else {
    // Every worker times itself at the same moment, as on a real cluster,
    // so the timings include the contention training will see. Each
    // context owns its net, batch generator and delay RNG: the threads
    // share nothing, and they are joined before the engine starts its own.
    std::vector<std::thread> timers;
    timers.reserve(world);
    for (std::size_t w = 0; w < world; ++w) {
      timers.emplace_back([&, w] {
        iter_times[w] = run.workers[w]->MeasureIterationTime(init, calib);
      });
    }
    for (std::thread& timer : timers) timer.join();
  }
  const std::vector<std::size_t> group_of =
      ComputeSpeedGroupsCapped(iter_times, config.max_group_size);
  std::size_t num_groups = 0;
  for (std::size_t g : group_of) num_groups = std::max(num_groups, g + 1);
  obs::SetGauge("hier.groups", static_cast<double>(num_groups));

  run.groups.resize(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    run.groups[g].probe_seed = config.seed + 9101 + 7 * g;
    run.groups[g].track = "group" + std::to_string(g) + "/controller";
  }
  for (std::size_t w = 0; w < world; ++w) {
    run.groups[group_of[w]].members.push_back(w);
  }

  // ---- parameter-server layer: tree of range-sharded nodes ---------------
  const std::size_t shards =
      std::min(std::max<std::size_t>(1, config.ps_shards), dim);
  const PsTree tree = BuildPsTree(num_groups, config.ps_fan_in);
  const std::size_t num_nodes = tree.nodes.size();
  obs::SetGauge("hier.ps_nodes", static_cast<double>(num_nodes));
  obs::SetGauge("hier.ps_shards", static_cast<double>(shards));

  // Endpoint layout: [workers | group controllers | node-major PS shards].
  const net::Rank first_ps = world + num_groups;
  auto ps_rank_of = [&](std::size_t node, std::size_t s) {
    return first_ps + node * shards + s;
  };
  net::Fabric fabric(world + num_groups + num_nodes * shards);
  if (auto plan = BuildFaultPlan(config)) {
    fabric.InstallFaultPlan(std::move(plan));
  }
  const common::Seconds ring_timeout =
      config.fault.Deadline(config.fault.collective_timeout_s);
  const common::Seconds ps_timeout =
      config.fault.Deadline(config.fault.retry_timeout_s);
  // Serializes the group leaders' PS syncs into (sync round, group id)
  // order under lockstep; unused otherwise (the async free-for-all *is* the
  // paper's design).
  RoundRobinGate ps_gate(num_groups);

  // Parents precede children in BuildPsTree's id order, so starting in id
  // order (and stopping in reverse) means a child's parent sync always
  // finds its parent serving.
  std::vector<std::unique_ptr<ps::ParameterServer>> servers;
  servers.reserve(num_nodes * shards);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    for (std::size_t s = 0; s < shards; ++s) {
      const auto begin =
          static_cast<std::ptrdiff_t>(ShardBegin(dim, shards, s));
      const auto end = static_cast<std::ptrdiff_t>(ShardEnd(dim, shards, s));
      std::vector<float> slice(init.begin() + begin, init.begin() + end);
      auto server = std::make_unique<ps::ParameterServer>(
          fabric, ps_rank_of(node, s), std::move(slice));
      if (tree.nodes[node].parent != node) {
        server->ConfigureParent(
            ps_rank_of(tree.nodes[node].parent, s),
            config.ps_parent_sync_every, config.fault.retry_budget,
            ps_timeout);
      }
      server->Start();
      servers.push_back(std::move(server));
    }
  }

  // Any member may lead a round (the lowest-ranked survivor does), so every
  // worker holds a client of its group's leaf node; only its own comm
  // thread uses it.
  std::vector<ps::ShardedPsClient> ps_clients;
  ps_clients.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    ps_clients.emplace_back(fabric, w, ps_rank_of(tree.leaf_of[group_of[w]], 0),
                            shards, dim);
    ps_clients.back().ConfigureRetry(config.fault.retry_budget, ps_timeout);
  }

  // Asynchronous cross-group averaging through the PS tree (§4 phases 2–3),
  // after every member's optimizer step. Skipped after an aborted
  // collective (the group model is stale, not wrong — the next sync folds
  // it in).
  run.policy_factory = [&] { return MakeProbePolicy(config.probe_choices); };
  run.round_hook = [&](const MemberRound& m) {
    if (faulty && m.round > 0) {
      fabric.Purge(m.rank, tags::kGroupCastBase,
                   tags::GroupCastTag(m.round) - 1);
    }
    if (!m.reduced || config.ps_sync_every == 0 ||
        m.round % config.ps_sync_every != 0) {
      return;
    }
    if (m.index == 0) {
      obs::ScopedTimer ps_timer(m.track, obs::Category::kComm,
                                "ps_push_pull", m.comm_seconds);
      ps_timer.SetArg("round", static_cast<double>(m.round));
      bool turn = true;
      if (lockstep) {
        // Deterministic PS ordering; under faults the wait is bounded so a
        // hung group ahead in the rotation cannot stall this one forever.
        turn = ps_gate.AcquireTurnFor(m.group, ring_timeout);
      }
      if (turn) {
        if (auto avg = ps_clients[m.rank].TryPushPull(
                m.params, ps::ApplyMode::kAverage)) {
          m.params = std::move(*avg);
        } else {
          // Retry budget exhausted: keep the local group model and catch
          // up at the next sync.
          obs::CountMetric("fault.ps_sync_skipped");
        }
        if (lockstep) ps_gate.ReleaseTurn(m.group);
      } else {
        obs::CountMetric("fault.ps_turn_timeouts");
      }
    }
    // The leader broadcasts whatever it ended up with (averaged or, after a
    // skipped sync, local), so followers never block on a sync that didn't
    // happen.
    obs::ScopedTimer bcast_timer(m.track, obs::Category::kComm,
                                 "group_broadcast", m.comm_seconds);
    bcast_timer.SetArg("round", static_cast<double>(m.round));
    const bool cast_ok =
        collectives::BroadcastFor(fabric, m.ring, m.index, 0, m.params,
                                  tags::GroupCastTag(m.round), ring_timeout);
    if (!cast_ok) obs::CountMetric("fault.broadcast_timeouts");
  };
  // Free any leader of another group still waiting for this group's PS-sync
  // turn.
  run.controller_exit = [&](std::size_t g) { ps_gate.Retire(g); };

  TrainResult result = RunPartialCollectiveGroups(
      config, factory, train_data, val_data, fabric, std::move(run));
  // Children before parents: an in-flight parent sync must still find its
  // parent serving.
  for (auto it = servers.rbegin(); it != servers.rend(); ++it) {
    (*it)->Stop();
  }
  return result;
}

}  // namespace rna::core::detail
