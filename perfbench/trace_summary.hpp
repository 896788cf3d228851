#pragma once

// Training-run half of the per-layer metrics: what the program already
// reports for a job run under obs::Session — its TrainResult, the spans
// the engine records and the counters it publishes — summed over the
// traced jobs of one benchmark run.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rna/obs/session.hpp"
#include "rna/train/metrics.hpp"
#include "stats.hpp"

namespace rna::perfbench {

class TraceTotals {
 public:
  /// Folds in one traced job. `call_start` is the recorder time just before
  /// RunTraining was called; `hierarchical` marks rna-h jobs, whose
  /// pre-loop time is dominated by speed calibration.
  void Add(const obs::Session& session, const train::TrainResult& r,
           std::size_t world, double call_start, bool hierarchical) {
    const auto tracks = session.Trace().Snapshot();
    double loop_start = 0.0;
    double loop_end = 0.0;
    for (const auto& t : tracks) {
      spans_dropped_ += static_cast<double>(t.dropped);
      for (const obs::Span& s : t.spans) {
        if (t.name == "main" && std::string(s.name) == "train_total") {
          loop_start = s.start;
          loop_end = s.start + s.duration;
        }
      }
    }
    const double loop = loop_end - loop_start;
    for (const auto& t : tracks) {
      const bool worker = t.name.rfind("worker", 0) == 0;
      std::vector<std::pair<double, double>> busy;
      for (const obs::Span& s : t.spans) {
        const std::string name = s.name;
        const double ms = s.duration * 1e3;
        if (name == "partial_allreduce") partial_allreduce_ms_.push_back(ms);
        if (name == "ps_push_pull") ps_push_pull_ms_.push_back(ms);
        if (name == "group_broadcast") group_broadcast_ms_.push_back(ms);
        if (name == "round") round_ms_.push_back(ms);
        if (name == "probe_wait") probe_wait_ms_.push_back(ms);
        if (name == "eval") eval_ms_.push_back(ms);
        if (name == "batch") {
          const double delay = Arg(s, "delay_s");
          delay_s_ += delay;
          batch_busy_s_ += s.duration - delay;
        }
        if (worker) {
          busy.emplace_back(std::max(s.start, loop_start),
                            std::min(s.start + s.duration, loop_end));
        }
      }
      if (worker) {
        worker_wall_s_ += loop;
        worker_covered_s_ += UnionLength(std::move(busy));
      }
    }
    compute_wall_s_ += r.wall_seconds * static_cast<double>(world);

    const obs::MetricsRegistry& m = session.Metrics();
    rounds_ += static_cast<double>(r.rounds);
    messages_ += static_cast<double>(m.CounterValue("fabric.messages"));
    bytes_ += static_cast<double>(m.CounterValue("fabric.bytes"));
    pool_hits_ += static_cast<double>(m.CounterValue("fabric.pool.hits"));
    pool_misses_ += static_cast<double>(m.CounterValue("fabric.pool.misses"));
    for (const char* f : {"raw", "fp16", "int8", "topk"}) {
      const std::string base = std::string("fabric.wire.") + f;
      wire_raw_ += static_cast<double>(m.CounterValue(base + ".raw_bytes"));
      wire_bytes_ += static_cast<double>(m.CounterValue(base + ".wire_bytes"));
    }
    ps_requests_ += static_cast<double>(m.CounterValue("ps.requests"));
    ps_retries_ += static_cast<double>(m.CounterValue("ps.retries"));
    evals_ += static_cast<double>(m.CounterValue("monitor.evals"));
    groups_.push_back(hierarchical ? m.GaugeValue("hier.groups") : 1.0);
    calibration_s_.push_back(hierarchical ? loop_start - call_start : 0.0);

    ctrl_busy_s_ += r.controller_busy_seconds;
    ctrl_msgs_ += static_cast<double>(r.controller_messages);
    for (std::size_t c : r.round_contributors) {
      contributors_ += static_cast<double>(c);
    }
    contributor_rounds_ += static_cast<double>(r.round_contributors.size());
    applied_ += static_cast<double>(r.gradients_applied);
    dropped_ += static_cast<double>(r.gradients_dropped);
    for (const train::WorkerTimeBreakdown& b : r.breakdown) {
      compute_s_ += b.compute;
      comm_s_ += b.comm;
      wait_s_ += b.wait;
    }
    jobs_ += 1.0;
  }

  /// The speed groups of every traced job (must all be equal).
  const std::vector<double>& Groups() const { return groups_; }
  double SpansDropped() const { return spans_dropped_; }

  void Report(MetricMap& out) const {
    out["nn.compute_share"] = {Ratio(batch_busy_s_, compute_wall_s_), "1"};
    out["sim.delay_share"] = {Ratio(delay_s_, compute_wall_s_), "1"};
    AddLatency(out, "collectives.partial_allreduce_ms", partial_allreduce_ms_,
               "ms");
    out["collectives.wire_bytes_per_round"] = {Ratio(wire_bytes_, rounds_),
                                               "B"};
    out["collectives.compression_ratio"] = {Ratio(wire_raw_, wire_bytes_),
                                            "1"};
    out["net.messages_per_round"] = {Ratio(messages_, rounds_), "count"};
    out["net.bytes_per_round"] = {Ratio(bytes_, rounds_), "B"};
    out["net.pool_hit_rate"] = {Ratio(pool_hits_, pool_hits_ + pool_misses_),
                                "1"};
    AddLatency(out, "ps.push_pull_ms", ps_push_pull_ms_, "ms");
    out["ps.requests_per_round"] = {Ratio(ps_requests_, rounds_), "count"};
    out["ps.retries"] = {ps_retries_, "count"};
    AddLatency(out, "train.round_ms", round_ms_, "ms");
    AddLatency(out, "train.probe_wait_ms", probe_wait_ms_, "ms");
    out["train.ctrl_busy_us_per_round"] = {Ratio(ctrl_busy_s_ * 1e6, rounds_),
                                           "us"};
    out["train.ctrl_msgs_per_round"] = {Ratio(ctrl_msgs_, rounds_), "count"};
    out["train.contributors_mean"] = {
        Ratio(contributors_, contributor_rounds_), "count"};
    out["train.drop_ratio"] = {Ratio(dropped_, applied_ + dropped_), "1"};
    out["train.compute_share"] = {Ratio(compute_s_, compute_wall_s_), "1"};
    out["train.comm_share"] = {Ratio(comm_s_, compute_wall_s_), "1"};
    out["train.wait_share"] = {Ratio(wait_s_, compute_wall_s_), "1"};
    out["train.eval_ms_p50"] = {Quantile(eval_ms_, 0.5), "ms"};
    out["train.evals"] = {Ratio(evals_, jobs_), "count"};
    out["core.groups"] = {Median(groups_), "count"};
    out["core.calibration_s"] = {Median(calibration_s_), "s"};
    out["core.group_broadcast_ms_p50"] = {Quantile(group_broadcast_ms_, 0.5),
                                          "ms"};
    out["core.group_broadcast_ms_n"] = {
        static_cast<double>(group_broadcast_ms_.size()), "count"};
    out["obs.unaccounted_share"] = {
        1.0 - Ratio(worker_covered_s_, worker_wall_s_), "1"};
  }

 private:
  static double Arg(const obs::Span& s, const char* key) {
    for (int i = 0; i < 2; ++i) {
      if (s.arg_keys[i] != nullptr && std::string(s.arg_keys[i]) == key) {
        return s.arg_vals[i];
      }
    }
    return 0.0;
  }

  /// Total length covered by a set of [begin, end) intervals.
  static double UnionLength(std::vector<std::pair<double, double>> spans) {
    std::sort(spans.begin(), spans.end());
    double total = 0.0;
    double reach = -1e300;
    for (const auto& [begin, end] : spans) {
      const double from = std::max(begin, reach);
      if (end > from) total += end - from;
      reach = std::max(reach, end);
    }
    return total;
  }

  std::vector<double> partial_allreduce_ms_, ps_push_pull_ms_,
      group_broadcast_ms_, round_ms_, probe_wait_ms_, eval_ms_;
  std::vector<double> groups_, calibration_s_;
  double delay_s_ = 0, batch_busy_s_ = 0, compute_wall_s_ = 0;
  double worker_wall_s_ = 0, worker_covered_s_ = 0, spans_dropped_ = 0;
  double rounds_ = 0, messages_ = 0, bytes_ = 0, pool_hits_ = 0,
         pool_misses_ = 0, wire_raw_ = 0, wire_bytes_ = 0;
  double ps_requests_ = 0, ps_retries_ = 0, evals_ = 0, jobs_ = 0;
  double ctrl_busy_s_ = 0, ctrl_msgs_ = 0, contributors_ = 0,
         contributor_rounds_ = 0, applied_ = 0, dropped_ = 0;
  double compute_s_ = 0, comm_s_ = 0, wait_s_ = 0;
};

}  // namespace rna::perfbench
