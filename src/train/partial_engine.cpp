#include "rna/train/partial_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <span>
#include <thread>

#include "rna/collectives/allreduce.hpp"
#include "rna/collectives/ring.hpp"
#include "rna/common/check.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"
#include "rna/train/fault.hpp"
#include "rna/train/membership.hpp"
#include "rna/train/monitor.hpp"
#include "rna/train/stage.hpp"
#include "rna/train/tags.hpp"
#include "rna/train/worker.hpp"

namespace rna::train {

namespace {

// All three built-in policies read the ReadinessBoard's O(1) sharded
// aggregate instead of scanning a per-rank vector, so a trigger decision
// costs the same at world=10 and world=1000.

class MajorityPolicy final : public TriggerPolicy {
 public:
  void BeginRound(std::size_t world, common::Rng&) override {
    majority_ = world / 2 + 1;
  }
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() >= majority_;
  }
  const char* Name() const override { return "majority"; }

 private:
  std::size_t majority_ = 1;
};

class SoloPolicy final : public TriggerPolicy {
 public:
  void BeginRound(std::size_t, common::Rng&) override {}
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() > 0;
  }
  const char* Name() const override { return "solo"; }
};

class FullPolicy final : public TriggerPolicy {
 public:
  void BeginRound(std::size_t, common::Rng&) override {}
  bool ShouldTrigger(const ReadinessBoard& ready) override {
    return ready.ReadyRanks() == ready.Size();
  }
  const char* Name() const override { return "full"; }
};

}  // namespace

std::unique_ptr<TriggerPolicy> MakeMajorityPolicy() {
  return std::make_unique<MajorityPolicy>();
}
std::unique_ptr<TriggerPolicy> MakeSoloPolicy() {
  return std::make_unique<SoloPolicy>();
}
std::unique_ptr<TriggerPolicy> MakeFullPolicy() {
  return std::make_unique<FullPolicy>();
}


TrainResult RunPartialCollective(const TrainerConfig& config,
                                 const ModelFactory& factory,
                                 const data::Dataset& train_data,
                                 const data::Dataset& val_data,
                                 const TriggerPolicyFactory& policy_factory) {
  const std::size_t world = config.world;
  RNA_CHECK_MSG(world >= 1, "need at least one worker");
  net::Fabric fabric(world + 1);  // endpoint layout: [workers..., ctrl]
  if (auto plan = BuildFaultPlan(config)) {
    fabric.InstallFaultPlan(std::move(plan));
  }
  EngineGroup everyone;
  everyone.members.resize(world);
  std::iota(everyone.members.begin(), everyone.members.end(), net::Rank{0});
  everyone.probe_seed = config.seed + 9001;
  everyone.track = "controller";

  EngineRun run;
  run.workers = MakeWorkers(config, factory, train_data);
  run.init = InitialParams(config, factory);
  run.groups.push_back(std::move(everyone));
  run.policy_factory = policy_factory;
  return RunPartialCollectiveGroups(config, factory, train_data, val_data,
                                    fabric, std::move(run));
}

TrainResult RunPartialCollectiveGroups(const TrainerConfig& config,
                                       const ModelFactory& factory,
                                       const data::Dataset& train_data,
                                       const data::Dataset& val_data,
                                       net::Fabric& fabric, EngineRun run) {
  const std::size_t world = config.world;
  const std::size_t num_groups = run.groups.size();
  auto& workers = run.workers;
  const std::vector<float>& init = run.init;
  RNA_CHECK_MSG(world >= 1 && workers.size() == world,
                "need one worker context per rank");
  RNA_CHECK_MSG(num_groups >= 1, "need at least one group");

  // Each rank's group and its position in the group's founding list, built
  // once: every controller message resolves its sender in O(1), so a
  // message costs the same at world=10 and world=1000.
  std::vector<std::size_t> group_of(world, num_groups);
  std::vector<std::size_t> slot_of(world, 0);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::vector<net::Rank>& members = run.groups[g].members;
    RNA_CHECK_MSG(!members.empty(), "empty engine group");
    for (std::size_t i = 0; i < members.size(); ++i) {
      RNA_CHECK_MSG(members[i] < world && group_of[members[i]] == num_groups,
                    "engine groups must partition the ranks");
      group_of[members[i]] = g;
      slot_of[members[i]] = i;
    }
  }
  for (const std::size_t g : group_of) {
    RNA_CHECK_MSG(g < num_groups, "engine groups must partition the ranks");
  }

  FaultRuntime faults(config);
  const bool faulty = config.fault.Enabled();
  const bool lockstep = config.lockstep;
  // Every wait below is one receive whose deadline comes from
  // FaultConfig::Deadline: without faults each is kNoDeadline, so only the
  // awaited message or Shutdown() ends it. A mid-ring crash shows up as a
  // hop timeout; survivors abort the round instead of deadlocking.
  const common::Seconds ring_timeout =
      config.fault.Deadline(config.fault.collective_timeout_s);
  // Reports can lag a full aborted collective, so the controller's report
  // deadline must exceed the ring's hop timeout.
  const common::Seconds report_budget = config.fault.Deadline(
      config.fault.collective_timeout_s + config.fault.probe_timeout_s);
  // Slice of the worker threads' token waits: under faults they wake to
  // notice a kill or the session's end between messages.
  const common::Seconds token_poll = config.fault.Deadline(0.05);

  const std::size_t dim = workers[0]->Dim();
  std::vector<std::unique_ptr<GradientStage>> stages;
  for (std::size_t w = 0; w < world; ++w) {
    stages.push_back(std::make_unique<GradientStage>(
        dim, config.staleness_bound, config.combine));
  }
  // One board per group, published by the round's lowest-ranked member: a
  // group's gradients are computed against its own model, never another
  // group's, so under lockstep every group's compute inputs sit on its own
  // deterministic round boundary. The monitor watches rank 0's group.
  std::vector<std::unique_ptr<ParamBoard>> boards;
  boards.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    boards.push_back(std::make_unique<ParamBoard>(init));
  }

  std::atomic<bool> stop{false};          // raised by the monitor
  std::atomic<bool> global_stop{false};   // raised by a comm thread's exit
  std::atomic<std::size_t> rounds_done{0};
  std::atomic<std::size_t> batches_applied{0};
  // Written by rank 0's group controller only; the main thread reads it
  // only after the controllers' join(), which orders those accesses
  // (verified under TSan by tests/test_race_stress.cpp).
  std::vector<std::size_t> round_contributors;
  // Same single-writer discipline: each controller owns its group's
  // membership directory and busy-time slot; the main thread reads them
  // after join().
  std::vector<std::unique_ptr<MembershipDirectory>> directories;
  directories.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    directories.push_back(std::make_unique<MembershipDirectory>(
        run.groups[g].members, config.elastic));
  }
  std::vector<common::Seconds> ctrl_busy(num_groups, 0.0);
  std::vector<std::size_t> ctrl_msgs(num_groups, 0);

  EvalMonitor monitor(config, factory, val_data);
  monitor.Start(*boards[group_of[0]], stop, rounds_done);

  // wait is written by a rank's compute thread, comm by its comm thread.
  std::vector<WorkerTimeBreakdown> comm_times(world);
  std::vector<std::vector<float>> final_params(world);

  obs::ScopedTimer wall_timer(obs::RegisterTrack("main"),
                              obs::Category::kOther, "train_total");

  // ---- communication threads -------------------------------------------
  std::vector<std::thread> comm_threads;
  comm_threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    comm_threads.emplace_back([&, w] {
      const obs::TrackHandle track =
          obs::RegisterTrack(obs::WorkerTrack(w, "comm"));
      const std::size_t g = group_of[w];
      const net::Rank controller = world + g;
      const auto founding_size =
          static_cast<double>(run.groups[g].members.size());
      std::vector<float> params = init;
      nn::SgdMomentum& optimizer = workers[w]->Optimizer();
      std::vector<float> buffer(dim);
      // For ContributionMode::kStaleReuse: the gradient this worker last
      // put into a collective, re-sent once while no fresh one is ready
      // (re-sending indefinitely would apply the same stale direction every
      // round and diverge; eager-SGD bounds the staleness).
      std::vector<float> last_sent(dim, 0.0f);
      bool last_sent_valid = false;
      const bool stale_reuse =
          config.contribution == ContributionMode::kStaleReuse;
      // Per-worker error-feedback residual for lossy compression; +1 for
      // the partial collective's contributor-flag tail. Pre-sized so the
      // hot loop never reallocates it.
      collectives::ErrorFeedback feedback;
      feedback.EnsureSize(dim + 1);
      bool died = false;  // fail-stop exit, distinct from session end
      bool left = false;  // clean elastic departure, also not session end
      for (;;) {
        std::optional<net::Message> go;
        {
          // The comm thread idling until the next Go is not the worker
          // waiting: under free-running its compute thread keeps running.
          // Worker wait is the compute thread's paced token receive below.
          obs::ScopedTimer idle_timer(track, obs::Category::kOther,
                                      "wait_trigger");
          // A dropped exit-Go must not strand this thread: under faults
          // the session's end or a kill abandons the wait.
          while (!(go = fabric.RecvFor(w, tags::kGo, token_poll))
                      .has_value()) {
            if (fabric.IsClosed(w) || (faulty && global_stop.load()) ||
                !faults.Alive(w)) {
              break;
            }
          }
        }
        if (!go.has_value()) {
          died = !faults.Alive(w);  // killed from the compute side
          break;
        }
        if (go->meta.empty() || go->meta[0] < 0) {
          // Session over — or, with meta[1]==2, a personal exit for this
          // rank's scheduled elastic leave (the rest of the group keeps
          // training).
          left = go->meta.size() > 1 && go->meta[1] == 2;
          break;
        }
        const auto round = static_cast<std::size_t>(go->meta[0]);

        if (faults.ShouldCrashInRound(w, round)) {
          // Fail-stop while holding the round hostage: this rank is in the
          // round's membership, so survivors must abort via ring timeout —
          // the scenario that deadlocked the pre-fault engine in Recv.
          faults.Kill(w);
          obs::ScopedTimer crash_span(track, obs::Category::kFault, "crash");
          crash_span.SetArg("round", static_cast<double>(round));
          net::Message bye;
          bye.tag = tags::kGoodbye;
          bye.meta = {go->meta[0]};
          fabric.Send(w, controller, std::move(bye));
          died = true;
          break;
        }
        if (!faults.Alive(w)) {
          died = true;  // compute-side crash already announced the goodbye
          break;
        }

        // Round membership travels in the Go: [round, verdict, member
        // count, members..., joiners...]. A rank in the joiner tail is not
        // yet a ring member — it receives the round leader's state
        // transfer instead.
        collectives::Group group;
        std::vector<net::Rank> joiners;
        const auto member_count = static_cast<std::size_t>(go->meta[2]);
        for (std::size_t i = 3; i < go->meta.size(); ++i) {
          const auto r = static_cast<net::Rank>(go->meta[i]);
          if (i - 3 < member_count) {
            group.members.push_back(r);
          } else {
            joiners.push_back(r);
          }
        }
        if (std::find(joiners.begin(), joiners.end(), w) != joiners.end()) {
          // Joining rank: install the leader's replica (params ‖ velocity,
          // LR bit-cast into the meta) and acknowledge with a synced
          // report, so the controller activates this rank next round with
          // a state bitwise-identical to every member's.
          std::optional<net::Message> state =
              fabric.RecvFor(w, tags::JoinStateTag(round), ring_timeout);
          bool synced = false;
          if (state.has_value() && state->data.size() == 2 * dim &&
              state->meta.size() > 1) {
            std::copy(state->data.begin(), state->data.begin() + dim,
                      params.begin());
            optimizer.SetVelocity(
                std::span<const float>(state->data.data() + dim, dim));
            optimizer.SetLearningRate(std::bit_cast<double>(state->meta[1]));
            fabric.Pool().Recycle(std::move(state->data));
            synced = true;
            obs::CountMetric("elastic.join_syncs");
          }
          net::Message report;
          report.tag = tags::kRoundEnd;
          // meta: [round, consumed=0, applied=0, synced flag]
          report.meta = {go->meta[0], 0, 0, synced ? 1 : 0};
          fabric.Send(w, controller, std::move(report));
          continue;
        }
        const auto member_it =
            std::find(group.members.begin(), group.members.end(), w);
        if (member_it == group.members.end()) continue;  // not in this round
        const std::size_t my_index =
            static_cast<std::size_t>(member_it - group.members.begin());

        // Step LR schedule: every worker decays at the same round.
        for (std::size_t milestone : config.lr_decay_rounds) {
          if (milestone == round) {
            optimizer.DecayLearningRate(config.lr_decay_factor);
          }
        }

        // Sweep stale chunks of earlier (possibly aborted) rounds so they
        // can never alias this round's unique tag range.
        if (faulty && round > 0) {
          fabric.Purge(w, tags::kRingBase, tags::RingTag(round) - 1);
        }

        auto drained = stages[w]->Drain();
        const bool fresh = drained.has_value();
        bool contributes = fresh;
        if (fresh) {
          buffer = std::move(drained->grad);
          if (stale_reuse) {
            last_sent = buffer;
            last_sent_valid = true;
          }
        } else if (stale_reuse && last_sent_valid) {
          buffer = last_sent;  // eager-SGD: repeat the stale gradient once
          last_sent_valid = false;
          contributes = true;
        } else {
          std::fill(buffer.begin(), buffer.end(), 0.0f);  // null gradient
        }

        collectives::CollectiveOptions opts;
        opts.schedule = config.schedule;
        opts.compression = config.compression;
        opts.topk_fraction = config.topk_fraction;
        opts.tag_base = tags::RingTag(round);
        opts.hop_timeout = ring_timeout;
        opts.feedback = &feedback;
        if (config.schedule == collectives::Schedule::kStragglar &&
            go->meta[1] > 0) {
          // The controller's verdict names a rank; the schedule wants the
          // straggler's position inside this round's membership. A verdict
          // for a rank outside the round (it was dropped between the
          // verdict and the Go) degrades to the plain ring.
          const auto straggler_rank =
              static_cast<net::Rank>(go->meta[1] - 1);
          const auto it = std::find(group.members.begin(),
                                    group.members.end(), straggler_rank);
          if (it != group.members.end()) {
            opts.straggler =
                static_cast<std::size_t>(it - group.members.begin());
          }
        }
        collectives::PartialResult reduced;
        {
          obs::ScopedTimer comm_timer(track, obs::Category::kComm,
                                      "partial_allreduce",
                                      &comm_times[w].comm);
          comm_timer.SetArg("round", static_cast<double>(round));
          reduced = collectives::PartialAllreduceFor(
              {fabric, group, my_index}, opts, buffer, contributes);
          comm_timer.SetArg("contributors",
                            static_cast<double>(reduced.contributors));
        }
        if (!reduced.ok) {
          obs::ScopedTimer abort_span(track, obs::Category::kFault,
                                      "collective_abort");
          abort_span.SetArg("round", static_cast<double>(round));
          obs::CountMetric("fault.collective_aborts");
        }

        if (reduced.ok && reduced.contributors > 0) {
          double scale = 1.0;
          if (stale_reuse || config.lr_policy == LrScalePolicy::kLinear) {
            // RNA's Linear Scaling Rule: γ_k ∝ participating batch size;
            // eager-SGD averages the same way, so absent workers dilute the
            // update instead of re-weighting it. The denominator stays the
            // group's founding size: a dead worker is a permanent null
            // contributor under the paper's gradient rule.
            scale = static_cast<double>(reduced.contributors) / founding_size;
          }
          // The paper's W = 1/Σw re-weight, folded into the LR scale; the
          // publishing rank reports it so the metric is per round.
          if (my_index == 0) obs::ObserveMetric("round.reweight_scale", scale);
          optimizer.Step(params, buffer, scale);
        }
        if (run.round_hook) {
          run.round_hook({g, round, w, group, my_index, reduced.ok, params,
                          track, &comm_times[w].comm});
        }
        // The lowest-ranked member publishes — the group's first rank while
        // it lives, its successor after; the round number keeps versions
        // monotonic across a publisher change.
        if (my_index == 0) {
          boards[g]->Publish(params, static_cast<std::int64_t>(round) + 1);
        }
        if (my_index == 0 && !joiners.empty()) {
          // Round leader ships its replica to each joining rank (every
          // member holds an identical one, so the choice of sender does
          // not matter): params ‖ velocity in the pooled payload, LR in the
          // meta. Re-sent every round a joiner stays syncing, so a transfer
          // lost to a fault is retried by the next leader.
          const std::span<const float> velocity = optimizer.Velocity();
          for (const net::Rank j : joiners) {
            net::Message state;
            state.tag = tags::JoinStateTag(round);
            state.meta = {go->meta[0],
                          std::bit_cast<std::int64_t>(
                              optimizer.LearningRate())};
            state.data = fabric.Pool().Acquire(2 * dim);
            std::copy(params.begin(), params.end(), state.data.begin());
            std::copy(velocity.begin(), velocity.end(),
                      state.data.begin() + dim);
            fabric.Send(w, j, std::move(state));
          }
        }

        net::Message report;
        report.tag = tags::kRoundEnd;
        // meta: [round, gradients consumed, gradients applied or -1 when
        // the collective aborted]. Consumed reconciles the controller's
        // readiness count; applied leaves out what kLatest discarded.
        const std::int64_t used =
            fresh ? static_cast<std::int64_t>(drained->used) : 0;
        report.meta = {go->meta[0],
                       fresh ? static_cast<std::int64_t>(drained->count) : 0,
                       reduced.ok ? used : -1};
        fabric.Send(w, controller, std::move(report));
      }
      // A leaver or a crash must not end the session; only the shared exit
      // Go (or a fabric shutdown) does.
      if (!died && !left) global_stop.store(true);
      final_params[w] = std::move(params);
    });
  }

  // ---- compute threads ---------------------------------------------------
  std::vector<std::thread> compute_threads;
  compute_threads.reserve(world);
  for (std::size_t w = 0; w < world; ++w) {
    compute_threads.emplace_back([&, w] {
      const net::Rank controller = world + group_of[w];
      ParamBoard& board = *boards[group_of[w]];
      std::vector<float> params = init;
      std::vector<float> grad(dim);
      std::int64_t seen = 0;
      auto crash_now = [&](std::int64_t round_hint) {
        // Fail-stop announced from the compute side; the comm thread
        // notices Alive() == false and exits without a second goodbye.
        faults.Kill(w);
        obs::CountMetric("fault.worker.goodbyes");
        net::Message bye;
        bye.tag = tags::kGoodbye;
        bye.meta = {round_hint};
        fabric.Send(w, controller, std::move(bye));
      };
      if (lockstep) {
        // Deterministic pacing: compute exactly one batch per controller
        // step token; acknowledge with kReady (or kGoodbye on a scheduled
        // crash) so the controller can account for every token. The token
        // receive is the only place a worker cannot start a batch, so it
        // is the worker's wait (under BSP: the wait for the round's
        // slowest member and the collective).
        const obs::TrackHandle track =
            obs::RegisterTrack(obs::WorkerTrack(w, "compute"));
        for (;;) {
          std::optional<net::Message> token;
          obs::ScopedTimer wait_timer(track, obs::Category::kWait,
                                      "wait_step", &comm_times[w].wait);
          while (!(token = fabric.RecvFor(w, tags::kStep, token_poll))
                      .has_value()) {
            // Lossless lockstep: global_stop only means *some* group
            // finished its rounds; this group's controller still owes an
            // exit token, so keep waiting for it (abandoning here would
            // leave the controller's step/ack handshake short and make
            // the tail rounds of slower groups racy).
            if (fabric.IsClosed(w) || (faulty && global_stop.load())) {
              return;
            }
          }
          wait_timer.Stop();
          if (token->meta.empty() || token->meta[0] < 0) return;
          if (!faults.Alive(w)) return;
          if (faults.BeforeIteration(w, workers[w]->Iterations()) ==
              IterationFate::kCrash) {
            crash_now(token->meta[0]);
            return;
          }
          seen = board.ReadIfNewer(seen, &params);
          workers[w]->ComputeGradient(params, grad);
          stages[w]->Write(grad,
                           static_cast<std::int64_t>(workers[w]->Iterations()));
          net::Message ready;
          ready.tag = tags::kReady;
          fabric.Send(w, controller, std::move(ready));
        }
      }
      // Free-running: the paper's wall-clock-raced schedule. See the
      // engine-wide comment on board symmetry in stage.hpp.
      while (!global_stop.load(std::memory_order_relaxed)) {
        if (!faults.Alive(w)) return;
        if (faults.BeforeIteration(w, workers[w]->Iterations()) ==
            IterationFate::kCrash) {
          crash_now(-1);
          return;
        }
        seen = board.ReadIfNewer(seen, &params);
        workers[w]->ComputeGradient(params, grad);
        const bool grew = stages[w]->Write(
            grad, static_cast<std::int64_t>(workers[w]->Iterations()));
        if (grew) {
          // Notify only on backlog growth so the controller's readiness
          // counts track the true buffered-gradient count.
          net::Message ready;
          ready.tag = tags::kReady;
          fabric.Send(w, controller, std::move(ready));
        }
      }
    });
  }

  // ---- one controller per group ------------------------------------------
  std::vector<std::thread> controllers;
  controllers.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    controllers.emplace_back([&, g] {
      const EngineGroup& spec = run.groups[g];
      const std::size_t group_size = spec.members.size();
      const net::Rank self = world + g;
      const obs::TrackHandle track = obs::RegisterTrack(spec.track);
      MembershipDirectory& directory = *directories[g];
      common::Seconds& busy = ctrl_busy[g];
      std::size_t& msgs = ctrl_msgs[g];
      common::Rng rng(spec.probe_seed);
      std::unique_ptr<TriggerPolicy> policy = run.policy_factory();
      // Sharded readiness aggregate: every policy decision and the forced-
      // trigger scan read O(1) tallies instead of scanning the group. It
      // and the per-member state below are indexed by slot_of[rank].
      ReadinessBoard readiness(group_size);
      std::vector<std::size_t> miss_count(group_size, 0);
      std::vector<bool> responded(group_size, false);
      // Consecutive rounds each member reported without contributing a
      // gradient — the controller's persistent-straggler evidence. Two or
      // more misses in a row makes a rank the round's straggler verdict,
      // which Schedule::kStragglar consumes to re-order the ring around it
      // (a one-round miss is noise; skipping already covers it).
      std::vector<std::size_t> skip_streak(group_size, 0);

      auto note_goodbye = [&](net::Rank src, std::size_t round) {
        if (!directory.Manages(src)) return;
        const MemberState was = directory.StateOf(src);
        if (was == MemberState::kDead || was == MemberState::kLeft) return;
        directory.OnDead(src);
        faults.Kill(src);
        readiness.Clear(slot_of[src]);
        obs::CountMetric("fault.controller.deaths");
        // A (near-)instant fault span on the controller track marks the
        // exclusion on the timeline.
        obs::ScopedTimer death_span(track, obs::Category::kFault,
                                    "worker_death");
        death_span.SetArg("rank", static_cast<double>(src));
        death_span.SetArg("round", static_cast<double>(round));
      };

      auto broadcast_exit = [&] {
        for (const net::Rank m : spec.members) {
          net::Message go;
          go.tag = tags::kGo;
          go.meta = {-1, 1};
          fabric.Send(self, m, std::move(go));
          net::Message step;
          step.tag = tags::kStep;
          step.meta = {-1};
          fabric.Send(self, m, std::move(step));
        }
      };

      // Under lossless lockstep every group's controller runs its full
      // round schedule: global_stop only records that another group's
      // session ended first, and honoring it here would make the number
      // of rounds (and so the batch accounting) of the remaining groups
      // depend on cross-group thread timing. The monitor's `stop` (early
      // target) still ends the loop; faulty runs keep the abort path.
      const bool lossless_lockstep = lockstep && !faulty;
      auto session_over = [&] {
        return stop.load() || (!lossless_lockstep && global_stop.load());
      };
      std::size_t round = 0;
      for (; round < config.max_rounds && !session_over(); ++round) {
        std::vector<net::Rank> members;
        std::vector<net::Rank> joiners;
        {
          // Busy time is accounted in thread-CPU seconds, not wall time:
          // with hundreds of worker threads oversubscribing the cores, the
          // wall clock inside these sections measures preemption, and the
          // per-worker O(1) claim gated by bench_scale would drown in
          // scheduler noise. The ScopedTimer still records the wall span
          // for the trace.
          common::ScopedCpuAccumulator dispatch_cpu(&busy);
          obs::ScopedTimer dispatch_timer(track, obs::Category::kOther,
                                          "ctrl_dispatch");
          dispatch_timer.SetArg("round", static_cast<double>(round));
          const auto delta = directory.BeginRound(round);
          for (const net::Rank r : delta.leaving) {
            // Clean elastic departure: a personal exit Go (meta[1]==2
            // distinguishes it from session end) plus an exit step token.
            // Not a death — no strike-out, no fault accounting.
            readiness.Clear(slot_of[r]);
            net::Message bye_go;
            bye_go.tag = tags::kGo;
            bye_go.meta = {-1, 2};
            fabric.Send(self, r, std::move(bye_go));
            net::Message bye_step;
            bye_step.tag = tags::kStep;
            bye_step.meta = {-1};
            fabric.Send(self, r, std::move(bye_step));
            msgs += 2;
            obs::CountMetric("elastic.leaves");
          }
          members = directory.ActiveMembers();
          joiners = directory.SyncingMembers();
        }
        if (members.empty()) break;
        policy->BeginRound(group_size, rng);

        if (lockstep) {
          // Pace: one compute token per live member, then account for
          // every token (kReady, kGoodbye, or — under faults — a deadline
          // miss from a hung worker, who stays a member and contributes
          // null). Syncing joiners get no token: their first batch waits
          // for the state transfer.
          {
            common::ScopedCpuAccumulator token_cpu(&busy);
            obs::ScopedTimer token_timer(track, obs::Category::kOther,
                                         "ctrl_tokens");
            for (net::Rank m : members) {
              net::Message step;
              step.tag = tags::kStep;
              step.meta = {static_cast<std::int64_t>(round)};
              fabric.Send(self, m, std::move(step));
            }
            msgs += members.size();
            std::fill(responded.begin(), responded.end(), false);
          }
          std::size_t got = 0;
          const int ack_tags[] = {tags::kReady, tags::kGoodbye};
          obs::ScopedTimer step_timer(track, obs::Category::kWait,
                                      "step_wait");
          step_timer.SetArg("round", static_cast<double>(round));
          while (got < members.size() && !session_over()) {
            const common::Seconds left = report_budget - step_timer.Elapsed();
            if (left <= 0.0) break;
            auto msg = fabric.RecvAnyFor(self, ack_tags, left);
            if (!msg.has_value()) {
              if (left == common::kNoDeadline) return;  // fabric shut down
              break;  // deadline or shutdown
            }
            const net::Rank src = msg->src;
            const std::size_t slot = slot_of[src];
            common::ScopedCpuAccumulator handle_cpu(&busy);
            obs::ScopedTimer handle_timer(track, obs::Category::kOther,
                                          "ctrl_handle");
            ++msgs;
            if (msg->tag == tags::kGoodbye) {
              note_goodbye(src, round);
            } else if (directory.IsActive(src)) {
              readiness.Add(slot, 1);
            }
            if (!responded[slot]) {
              responded[slot] = true;
              ++got;
            }
          }
          step_timer.Stop();
          if (session_over()) break;
          members = directory.ActiveMembers();  // goodbyes may shrink it
          if (members.empty()) break;
        } else {
          obs::ScopedTimer probe_timer(track, obs::Category::kWait,
                                       "probe_wait");
          probe_timer.SetArg("round", static_cast<double>(round));
          common::Seconds election_start = 0.0;
          while (!session_over()) {
            // Drain the whole notification backlog each pass so the
            // controller mailbox stays small even with very fast compute
            // threads.
            while (auto note = fabric.TryRecv(self, tags::kReady)) {
              if (directory.IsActive(note->src)) {
                readiness.Add(slot_of[note->src], 1);
              }
            }
            if (faulty) {
              while (auto bye = fabric.TryRecv(self, tags::kGoodbye)) {
                note_goodbye(bye->src, round);
              }
              // A hung worker's late report from an earlier round: fold
              // its gradient accounting in, clear its death strikes.
              while (auto late = fabric.TryRecv(self, tags::kRoundEnd)) {
                const std::size_t slot = slot_of[late->src];
                readiness.Add(slot, -late->meta[1]);
                miss_count[slot] = 0;
                if (late->meta[2] > 0) {
                  batches_applied.fetch_add(
                      static_cast<std::size_t>(late->meta[2]));
                }
              }
              if (directory.ActiveCount() == 0) break;
            }
            if (policy->ShouldTrigger(readiness)) break;
            if (faulty &&
                probe_timer.Elapsed() - election_start >
                    config.fault.probe_timeout_s) {
              if (readiness.ReadyRanks() > 0) {
                // Probed-and-silent workers are treated as absent (the
                // paper's null-gradient rule): force the round with
                // whoever is ready rather than waiting on the dead.
                obs::CountMetric("fault.forced_triggers");
                break;
              }
              // Nobody ready at all: hold a fresh election and keep
              // waiting.
              policy->BeginRound(group_size, rng);
              obs::CountMetric("fault.reelections");
              election_start = probe_timer.Elapsed();
            }
            auto note = fabric.RecvFor(self, tags::kReady, 0.002);
            if (note.has_value() && directory.IsActive(note->src)) {
              readiness.Add(slot_of[note->src], 1);
            }
          }
          if (session_over()) break;
          members = directory.ActiveMembers();
          if (members.empty()) break;
        }

        obs::ScopedTimer round_timer(track, obs::Category::kRound, "round");
        round_timer.SetArg("round", static_cast<double>(round));
        {
          common::ScopedCpuAccumulator go_cpu(&busy);
          obs::ScopedTimer go_timer(track, obs::Category::kOther, "ctrl_go");
          // Go carries the round's membership so every member builds the
          // same ring, plus the straggler verdict in meta[1]: rank+1 of the
          // live member with the longest ≥2-round non-contribution streak,
          // or 0 when there is none. Every member sees the same verdict, so
          // Schedule::kStragglar's permutation is identical ring-wide.
          // meta[2] = member count M; meta[3..3+M) = the ring; any tail
          // beyond M lists syncing joiners — the leader (members[0]) sends
          // each one the model state after the collective, and the joiners
          // themselves learn which round to expect that state on.
          std::int64_t verdict = 0;
          std::size_t best_streak = 1;
          for (net::Rank m : members) {
            if (skip_streak[slot_of[m]] > best_streak) {
              best_streak = skip_streak[slot_of[m]];
              verdict = static_cast<std::int64_t>(m) + 1;
            }
          }
          if (verdict != 0) obs::CountMetric("round.straggler_verdicts");
          std::vector<std::int64_t> meta = {
              static_cast<std::int64_t>(round), verdict,
              static_cast<std::int64_t>(members.size())};
          for (net::Rank r : members) {
            meta.push_back(static_cast<std::int64_t>(r));
          }
          for (net::Rank j : joiners) {
            meta.push_back(static_cast<std::int64_t>(j));
          }
          for (const std::vector<net::Rank>* to : {&members, &joiners}) {
            for (const net::Rank r : *to) {
              net::Message go;
              go.tag = tags::kGo;
              go.meta = meta;
              fabric.Send(self, r, std::move(go));
            }
          }
          msgs += members.size() + joiners.size();
        }
        const int want[] = {tags::kRoundEnd, tags::kReady, tags::kGoodbye};
        std::size_t contributors = 0;
        std::size_t reports = 0;
        // Members report after the collective; syncing joiners report after
        // (attempting to) install the transferred state.
        const std::size_t expected = members.size() + joiners.size();
        std::fill(responded.begin(), responded.end(), false);
        obs::ScopedTimer report_timer(track, obs::Category::kWait,
                                      "report_wait");
        while (reports < expected) {
          const common::Seconds left = report_budget - report_timer.Elapsed();
          if (left <= 0.0) break;
          auto msg = fabric.RecvAnyFor(self, want, left);
          if (!msg.has_value()) {
            if (left == common::kNoDeadline) return;  // fabric shut down
            break;  // deadline or shutdown
          }
          const net::Rank src = msg->src;
          const std::size_t slot = slot_of[src];
          common::ScopedCpuAccumulator handle_cpu(&busy);
          obs::ScopedTimer handle_timer(track, obs::Category::kOther,
                                        "ctrl_handle");
          ++msgs;
          if (msg->tag == tags::kReady) {
            if (directory.IsActive(src)) readiness.Add(slot, 1);
            continue;
          }
          if (msg->tag == tags::kGoodbye) {
            note_goodbye(src, round);
            const bool counted =
                std::find(members.begin(), members.end(), src) !=
                    members.end() ||
                std::find(joiners.begin(), joiners.end(), src) !=
                    joiners.end();
            if (counted && !responded[slot]) {
              responded[slot] = true;
              ++reports;
            }
            continue;
          }
          // kRoundEnd — possibly a late report of an earlier round.
          readiness.Add(slot, -msg->meta[1]);
          miss_count[slot] = 0;
          const bool aborted = msg->meta[2] < 0;
          if (!aborted) {
            batches_applied.fetch_add(static_cast<std::size_t>(msg->meta[2]));
          }
          if (static_cast<std::size_t>(msg->meta[0]) != round) continue;
          if (!responded[slot]) {
            responded[slot] = true;
            ++reports;
          }
          if (directory.IsSyncing(src)) {
            // A joiner's sync ack: meta[3] == 1 means the state transfer
            // landed and the rank computes from the next round on. A zero
            // flag (leader's send lost on a lossy fabric) keeps it
            // syncing; the next round's Go re-lists it and the leader
            // re-sends.
            if (msg->meta.size() > 3 && msg->meta[3] != 0) {
              directory.OnSynced(src);
              obs::CountMetric("elastic.joins");
            }
            continue;
          }
          if (!aborted && msg->meta[1] > 0) {
            ++contributors;
            skip_streak[slot] = 0;
          } else {
            ++skip_streak[slot];
          }
        }
        report_timer.Stop();
        if (reports < expected) {
          // Deadline expired with silent members: report silence means the
          // comm thread is gone (fail-stop), unlike step silence which is
          // just slow compute. Strike them; dead_after_misses strikes
          // kills.
          auto strike = [&](net::Rank m) {
            const MemberState s = directory.StateOf(m);
            if (s == MemberState::kDead || s == MemberState::kLeft) return;
            const std::size_t slot = slot_of[m];
            if (responded[slot]) return;
            if (++miss_count[slot] >= config.fault.dead_after_misses) {
              note_goodbye(m, round);
              obs::CountMetric("fault.declared_dead");
            }
          };
          for (net::Rank m : members) strike(m);
          for (net::Rank j : joiners) strike(j);
          obs::CountMetric("fault.report_deadline_misses");
        }
        round_timer.SetArg("contributors", static_cast<double>(contributors));
        obs::ObserveMetric("round.contributors",
                           static_cast<double>(contributors));
        if (g == group_of[0]) {
          obs::CountMetric("round.count");
          round_contributors.push_back(contributors);
          rounds_done.fetch_add(1);
        }
      }
      broadcast_exit();  // no collective, everyone leaves
      if (run.controller_exit) run.controller_exit(g);
    });
  }

  for (auto& t : controllers) t.join();
  for (auto& t : comm_threads) t.join();
  // comm exits flip global_stop; compute threads notice within an iteration.
  for (auto& t : compute_threads) t.join();
  const common::Seconds wall_s = wall_timer.Stop();
  monitor.Finish();

  TrainResult result;
  result.wall_seconds = wall_s;
  result.rounds = rounds_done.load();
  result.gradients_applied = batches_applied.load();
  for (auto& stage : stages) result.gradients_dropped += stage->Dropped();
  obs::CountMetric("stage.staleness_drops",
                   static_cast<std::int64_t>(result.gradients_dropped));
  result.reached_target = monitor.ReachedTarget();
  result.early_stopped = monitor.EarlyStopped();
  result.curve = monitor.Curve();
  result.round_contributors = std::move(round_contributors);
  result.live_workers = faults.LiveCount();
  for (std::size_t g = 0; g < num_groups; ++g) {
    result.workers_joined += directories[g]->JoinedTotal();
    result.workers_left += directories[g]->LeftTotal();
    result.controller_busy_seconds += ctrl_busy[g];
    result.controller_messages += ctrl_msgs[g];
  }

  result.breakdown.resize(world);
  for (std::size_t w = 0; w < world; ++w) {
    result.breakdown[w] = workers[w]->Times();
    result.breakdown[w].wait = comm_times[w].wait;
    result.breakdown[w].comm = comm_times[w].comm;
  }

  // The lowest surviving *active* rank's replica is the result (all active
  // survivors of a group hold identical parameters after their last shared
  // collective; a clean leaver's replica is frozen at its exit round).
  std::size_t reporter = 0;
  bool found = false;
  for (std::size_t w = 0; w < world && !found; ++w) {
    if (directories[group_of[w]]->IsActive(w) && faults.Alive(w)) {
      reporter = w;
      found = true;
    }
  }
  for (std::size_t w = 0; w < world && !found; ++w) {
    if (faults.Alive(w)) {
      reporter = w;
      found = true;
    }
  }
  result.final_params = final_params[reporter];
  monitor.FinalEval(workers[0]->Net(), train_data, &result);
  return result;
}

}  // namespace rna::train
