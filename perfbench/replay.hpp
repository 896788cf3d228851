#pragma once

// Replay half of the per-layer metrics: the benchmark times its own calls
// into each module's public functions at the workload's shapes (model,
// batch, world size, parameter dimension, compression). Nothing here runs
// the training engine; each replay isolates one layer.

#include <span>
#include <thread>
#include <vector>

#include "rna/collectives/allreduce.hpp"
#include "rna/collectives/compression.hpp"
#include "rna/common/rng.hpp"
#include "rna/data/batch_generator.hpp"
#include "rna/data/shard_view.hpp"
#include "rna/net/fabric.hpp"
#include "rna/net/wire.hpp"
#include "rna/ps/sharded.hpp"
#include "rna/tensor/ops.hpp"
#include "rna/train/stage.hpp"
#include "rna/train/tags.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace rna::perfbench {

/// Microseconds per call of `fn`, one sample per call.
template <typename Fn>
std::vector<double> TimeCalls(std::size_t calls, Fn&& fn) {
  std::vector<double> us;
  us.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const Clock::time_point start = Clock::now();
    fn(i);
    us.push_back(SecondsSince(start) * 1e6);
  }
  return us;
}

inline std::vector<float> RandomVector(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

/// Worker 0's batch stream, built the way train::WorkerContext builds it.
inline data::BatchGenerator MakeGenerator(const Workload& w,
                                          std::size_t prefetch) {
  return data::BatchGenerator(
      data::ShardView::Strided(w.scenario.train, 0, w.config.world),
      data::BatchGeneratorOptions{.batch_size = w.config.batch_size,
                                  .seed = w.config.seed + 1000,
                                  .mode = w.config.sampling,
                                  .prefetch_depth = prefetch});
}

/// data: BatchGenerator::Next at the workload's prefetch depth, and batch
/// assembly alone (prefetch depth 0).
inline void ReplayData(const Workload& w, std::size_t calls, MetricMap& out) {
  {
    data::BatchGenerator gen = MakeGenerator(w, w.config.prefetch_batches);
    AddLatency(out, "data.next_us", TimeCalls(calls, [&](std::size_t) {
                 gen.Next();
               }),
               "us");
  }
  data::BatchGenerator gen = MakeGenerator(w, 0);
  out["data.assemble_us_p50"] = {
      Median(TimeCalls(calls, [&](std::size_t) { gen.Next(); })), "us"};
}

/// nn: ForwardBackward + CopyGradsTo on the workload's model, after one
/// pass over the replayed batches has grown the compute arena.
inline void ReplayNn(const Workload& w, std::size_t calls, MetricMap& out) {
  auto net = w.scenario.factory(w.config.model_seed);
  std::vector<float> grads(net->ParamCount());
  data::BatchGenerator gen = MakeGenerator(w, 0);
  std::vector<nn::Batch> batches;
  for (std::size_t i = 0; i < 64; ++i) batches.push_back(gen.Next());
  for (const nn::Batch& b : batches) net->ForwardBackward(b);
  AddLatency(out, "nn.fwd_bwd_us", TimeCalls(calls, [&](std::size_t i) {
               net->ForwardBackward(batches[i % batches.size()]);
               net->CopyGradsTo(grads);
             }),
             "us");
}

/// tensor: GFLOP/s of the three matmul variants over the model's shapes.
inline void ReplayTensor(const Workload& w, double seconds, MetricMap& out) {
  using MatMulFn = void (*)(const tensor::Tensor&, const tensor::Tensor&,
                            tensor::Tensor&, float, float);
  struct Variant {
    const char* metric;
    MatMulFn fn;
    bool a_transposed;
    bool b_transposed;
  };
  const Variant variants[] = {
      {"tensor.matmul_nn_gflops", &tensor::MatMul, false, false},
      {"tensor.matmul_nt_gflops", &tensor::MatMulNT, false, true},
      {"tensor.matmul_tn_gflops", &tensor::MatMulTN, true, false},
  };
  for (const Variant& v : variants) {
    struct Operands {
      tensor::Tensor a, b, c;
      double flops;
    };
    std::vector<Operands> ops;
    for (const MatShape& s : w.shapes) {
      const tensor::Shape a_shape =
          v.a_transposed ? tensor::Shape{s.k, s.m} : tensor::Shape{s.m, s.k};
      const tensor::Shape b_shape =
          v.b_transposed ? tensor::Shape{s.n, s.k} : tensor::Shape{s.k, s.n};
      Operands o{tensor::Tensor(a_shape, RandomVector(s.m * s.k, 1)),
                 tensor::Tensor(b_shape, RandomVector(s.k * s.n, 2)),
                 tensor::Tensor({s.m, s.n}), 2.0 * static_cast<double>(
                                                     s.m * s.k * s.n)};
      ops.push_back(std::move(o));
    }
    double flops = 0.0;
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < seconds) {
      for (int rep = 0; rep < 16; ++rep) {
        for (Operands& o : ops) {
          v.fn(o.a, o.b, o.c, 1.0f, 0.0f);
          flops += o.flops;
        }
      }
    }
    out[v.metric] = {flops / SecondsSince(start) / 1e9, "GFLOP/s"};
  }
}

/// collectives: PartialAllreduceFor over `world` threads on one fabric at
/// the model dimension with the workload's compression; rank 0's calls.
inline void ReplayAllreduce(const Workload& w, std::size_t dim,
                            std::size_t calls, MetricMap& out) {
  const std::size_t world = w.config.world;
  net::Fabric fabric(world);
  const collectives::Group group = collectives::Group::Full(world);
  std::vector<std::vector<double>> us(world);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      collectives::ErrorFeedback feedback;
      feedback.EnsureSize(dim + 1);
      std::vector<float> grad = RandomVector(dim, 10 + r);
      std::vector<float> buffer(dim);
      us[r] = TimeCalls(calls, [&](std::size_t i) {
        collectives::CollectiveOptions opts;
        opts.schedule = w.config.schedule;
        opts.compression = w.config.compression;
        opts.topk_fraction = w.config.topk_fraction;
        opts.tag_base = train::tags::RingTag(i);
        opts.feedback = &feedback;
        std::copy(grad.begin(), grad.end(), buffer.begin());
        collectives::PartialAllreduceFor({fabric, group, r}, opts, buffer,
                                         true);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  fabric.Shutdown();
  AddLatency(out, "collectives.allreduce_us", us[0], "us");
}

/// net: a small control message's round trip between two fabric threads.
inline void ReplayPingPong(std::size_t calls, MetricMap& out) {
  constexpr int kTag = 17;
  net::Fabric fabric(2);
  std::thread echo([&] {
    for (std::size_t i = 0; i < calls; ++i) {
      std::optional<net::Message> m = fabric.RecvFor(1, kTag, 5.0);
      if (!m) return;
      fabric.Send(1, 0, std::move(*m));
    }
  });
  const std::vector<double> us = TimeCalls(calls, [&](std::size_t i) {
    net::Message msg;
    msg.tag = kTag;
    msg.meta = {static_cast<std::int64_t>(i), 0};
    fabric.Send(0, 1, std::move(msg));
    fabric.RecvFor(0, kTag, 5.0);
  });
  echo.join();
  fabric.Shutdown();
  AddLatency(out, "net.pingpong_us", us, "us");
}

/// net: wire encode and decode of one partial-collective payload (model
/// dimension plus the contributor flag) in the workload's wire format.
inline void ReplayWire(const Workload& w, std::size_t dim, std::size_t calls,
                       MetricMap& out) {
  const net::wire::Format format =
      collectives::ToWireFormat(w.config.compression);
  net::BufferPool pool;
  const std::vector<float> src = RandomVector(dim + 1, 3);
  std::vector<float> residual(dim + 1, 0.0f);
  std::vector<float> dst(dim + 1, 0.0f);
  const std::size_t k = net::wire::TopKCount(dim + 1, w.config.topk_fraction);
  std::vector<float> payload =
      net::wire::Encode(pool, format, src, residual, k, 1);
  out["net.encode_us_p50"] = {
      Median(TimeCalls(calls,
                       [&](std::size_t) {
                         pool.Recycle(std::move(payload));
                         payload = net::wire::Encode(pool, format, src,
                                                     residual, k, 1);
                       })),
      "us"};
  out["net.decode_us_p50"] = {
      Median(TimeCalls(calls,
                       [&](std::size_t) {
                         net::wire::Decode(format, payload, dst,
                                           net::wire::Fold::kAdd, 1);
                       })),
      "us"};
}

/// ps: ShardedPsClient::PushPull (model averaging) against the workload's
/// shard count, one client.
inline void ReplayPs(const Workload& w, std::size_t dim, std::size_t calls,
                     MetricMap& out) {
  const std::size_t shards = std::max<std::size_t>(1, w.config.ps_shards);
  net::Fabric fabric(1 + shards);
  std::vector<std::unique_ptr<ps::ParameterServer>> servers;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t size =
        ps::ShardLast(dim, shards, s) - ps::ShardFirst(dim, shards, s);
    servers.push_back(std::make_unique<ps::ParameterServer>(
        fabric, 1 + s, std::vector<float>(size, 0.0f)));
    servers.back()->Start();
  }
  ps::ShardedPsClient client(fabric, 0, 1, shards, dim);
  const std::vector<float> params = RandomVector(dim, 4);
  out["ps.replay_push_pull_us_p50"] = {
      Median(TimeCalls(calls,
                       [&](std::size_t) {
                         client.PushPull(params, ps::ApplyMode::kAverage);
                       })),
      "us"};
  for (auto& server : servers) server->Stop();
  fabric.Shutdown();
}

/// train: GradientStage::Write plus the combining Drain at model dimension.
inline void ReplayStage(const Workload& w, std::size_t dim, std::size_t calls,
                        MetricMap& out) {
  train::GradientStage stage(dim, w.config.staleness_bound, w.config.combine);
  const std::vector<float> grad = RandomVector(dim, 5);
  out["train.stage_write_us_p50"] = {
      Median(TimeCalls(calls,
                       [&](std::size_t i) {
                         stage.Write(grad, static_cast<std::int64_t>(i));
                         stage.Drain();
                       })),
      "us"};
}

/// Every replay, at call counts that leave at least ten samples above each
/// reported p99.
inline MetricMap RunReplays(const Workload& w) {
  MetricMap out;
  const std::size_t dim = w.scenario.factory(w.config.model_seed)->ParamCount();
  ReplayData(w, 2000, out);
  ReplayNn(w, 1000, out);
  ReplayTensor(w, 0.1, out);
  ReplayAllreduce(w, dim, 1000, out);
  ReplayPingPong(2000, out);
  ReplayWire(w, dim, 1000, out);
  ReplayPs(w, dim, 500, out);
  ReplayStage(w, dim, 1000, out);
  return out;
}

}  // namespace rna::perfbench
