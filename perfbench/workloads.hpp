#pragma once

// The benchmark's four training workloads. Each is one of the paper-figure
// scenarios from bench/bench_util.hpp with the settings that make its
// end-to-end numbers steady; README.md says why each workload exists.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/network.hpp"

namespace rna::perfbench {

/// One forward matmul shape, C(m×n) = A(m×k)·B(k×n), that a workload's
/// model runs per sample or per batch.
struct MatShape {
  std::size_t m = 0;
  std::size_t k = 0;
  std::size_t n = 0;
};

struct Workload {
  std::string name;
  benchutil::NamedScenario scenario;
  train::TrainerConfig config;
  /// First monitor evaluation at or below this loss defines
  /// time_to_target_s. The engine's own target stop stays off, so every
  /// job runs its full round budget.
  double target_loss = 0.0;
  /// The model's matmul shapes, replayed by the tensor layer metrics.
  std::vector<MatShape> shapes;
};

inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "straggler-rna", "imbalance-transformer", "mixed-hier",
      "lockstep-replay"};
  return names;
}

/// Dense MLP proxies: one batch×in·in×out matmul per layer.
inline std::vector<MatShape> MlpShapes(std::size_t batch,
                                       const std::vector<std::size_t>& dims) {
  std::vector<MatShape> shapes;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    shapes.push_back({batch, dims[i], dims[i + 1]});
  }
  return shapes;
}

/// Settings every workload shares: a fixed round budget with no early
/// stop, a step learning-rate decay over the second half of the budget so
/// final_loss settles instead of sampling an oscillating model, and a
/// monitor that evaluates the whole validation set often enough that
/// time_to_target_s resolves to about 1% of its value.
inline void CommonSettings(Workload& w, std::uint64_t seed,
                           std::size_t rounds, double eval_period_s) {
  train::TrainerConfig& c = w.config;
  c.max_rounds = rounds;
  c.lr_decay_rounds = {rounds / 2, rounds * 3 / 4};
  c.lr_decay_factor = 0.2;
  c.target_loss = -1.0;
  c.patience = 0;
  c.eval_period_s = eval_period_s;
  c.eval_samples = w.scenario.val.Size();
  c.seed = seed;
}

/// Builds workload `name`. Its dataset and initial model are fixed (the
/// scenario builders' own seeds, like a fixed benchmark dataset), so every
/// job trains the same problem; `seed` drives every random stream of the
/// job: batch sampling, injected delay jitter, probe choices and the
/// monitor's evaluation sampling. `world` overrides the workload's world
/// size when non-zero (the single-worker baseline of
/// core.scaling_efficiency).
inline Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                             std::size_t world = 0) {
  using train::Protocol;
  Workload w;
  w.name = name;
  std::size_t default_world = 4;
  if (name == "straggler-rna") {
    // Fig. 6 dynamic heterogeneity: 1×/2×/3× tiers plus U(0,1 ms) jitter,
    // scaled 3× so the injected delay, not thread wake-up latency, paces
    // the rounds (README.md, "Workloads").
    w.scenario = benchutil::MakeResnetProxy();
    const std::size_t n = world ? world : 4;
    w.config = benchutil::BaseBenchConfig(Protocol::kRna, w.scenario, n);
    w.config.delay_model = benchutil::DynamicDelays(n);
    w.config.delay_scale = 3.0;
    w.config.sgd.learning_rate = 0.02;
    CommonSettings(w, seed, 900, 0.01);
    w.target_loss = 0.9;
    w.shapes = MlpShapes(w.scenario.batch_size, {16, 48, 48, 32, 8});
  } else if (name == "imbalance-transformer") {
    // Fig. 8 inherent imbalance on real compute: a two-head transformer on
    // length-bucketed sentences, no injected sleep. The stock proxy data
    // is nearly separable (loss → 2e-4); heavier noise keeps final_loss a
    // quality signal.
    w.scenario = benchutil::MakeTransformerProxy();
    data::Dataset all = data::MakeSequenceDataset(
        1920, 6, 6, data::SentenceLengths(), 3.0, 4);
    std::tie(w.scenario.train, w.scenario.val) = all.SplitHoldout(0.2);
    w.scenario.factory = [](std::uint64_t model_seed) {
      return std::make_unique<nn::TransformerClassifier>(6, 32, 2, 6,
                                                         model_seed);
    };
    w.scenario.sleep_per_step = 0.0;
    default_world = 3;
    w.config = benchutil::BaseBenchConfig(Protocol::kRna, w.scenario,
                                          world ? world : default_world);
    w.config.sgd.learning_rate = 0.01;
    CommonSettings(w, seed, 900, 0.01);
    w.config.eval_samples = 192;
    w.target_loss = 1.0;
    // Mean sentence length 24: input projection, per-head Q/K/V, scores,
    // attention-weighted values, then the pooled head.
    const std::size_t len = 24;
    w.shapes = {{len, 6, 32},  {len, 32, 16}, {len, 16, len},
                {len, len, 16}, {1, 32, 6}};
  } else if (name == "mixed-hier") {
    // Fig. 6 "M" columns: the hardware mix plus persistent group-B
    // stragglers, run as rna-h with int8 wire compression and a sharded PS.
    // Delays scaled 3× as in straggler-rna; at 1× the speed calibration
    // also split the workers differently from job to job.
    w.scenario = benchutil::MakeVggProxy();
    const std::size_t n = world ? world : 4;
    w.config = benchutil::BaseBenchConfig(Protocol::kRnaHierarchical,
                                          w.scenario, n);
    w.config.delay_model = benchutil::MixedDelays(n);
    w.config.delay_scale = 3.0;
    w.config.compression = collectives::Compression::kInt8;
    w.config.ps_shards = 2;
    w.config.sgd.learning_rate = 0.02;
    CommonSettings(w, seed, 600, 0.01);
    w.target_loss = 0.9;
    w.shapes = MlpShapes(w.scenario.batch_size, {24, 512, 6});
  } else if (name == "lockstep-replay") {
    // Deterministic pacing with no injected delay: rounds are bound by the
    // controller's message round trips through net::Fabric.
    w.scenario = benchutil::MakeResnetProxy();
    w.config = benchutil::BaseBenchConfig(Protocol::kRna, w.scenario,
                                          world ? world : 4);
    w.config.lockstep = true;
    w.config.sgd.learning_rate = 0.01;
    CommonSettings(w, seed, 3000, 0.005);
    w.target_loss = 1.0;
    w.shapes = MlpShapes(w.scenario.batch_size, {16, 48, 48, 32, 8});
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  // A smaller world runs proportionally fewer rounds, so the
  // single-worker baseline takes about as long as the full job.
  w.config.max_rounds = w.config.max_rounds * w.config.world / default_world;
  w.config.probe_choices = std::min(w.config.probe_choices, w.config.world);
  return w;
}

}  // namespace rna::perfbench
