// Microbenchmarks for the arena-allocated compute plane: tiled matmul
// kernels (widest and 16-byte vector kernels vs the scalar reference) and
// whole train-step throughput for every model family, with the
// steady-state heap-allocation count measured directly (this binary
// replaces global operator new/delete with counting versions, the same
// technique as tests/test_arena.cpp).
//
// Two modes (same contract as bench_micro_kernels):
//   (default)            google-benchmark sweep.
//   --json-out <path>    pinned workloads written as BENCH_micro_nn.json for
//                        the CI bench-smoke regression gate. The gate pins
//                        `steady_heap_allocs` to an absolute ceiling of ZERO
//                        (tools/bench_gate.py ABSOLUTE_CEILINGS) — a change
//                        that reintroduces per-step allocation fails CI even
//                        if throughput stays inside the regression tolerance.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/tensor/tensor.hpp"

namespace {

std::atomic<std::size_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t padded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, padded ? padded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace rna;

namespace {

// ------------------------------------------------------------ workloads

std::unique_ptr<nn::Network> MakeModel(const std::string& kind) {
  if (kind == "mlp") {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{64, 128, 10}, 7);
  }
  if (kind == "lstm") return std::make_unique<nn::LstmClassifier>(16, 32, 8, 7);
  if (kind == "deep-lstm") {
    return std::make_unique<nn::DeepLstmClassifier>(16, 24, 2, 8, 7);
  }
  if (kind == "transformer") {
    return std::make_unique<nn::TransformerClassifier>(16, 32, 4, 8, 7);
  }
  return std::make_unique<nn::AttentionClassifier>(16, 24, 8, 7);
}

nn::Batch MakeBatchFor(const std::string& kind) {
  common::Rng rng(21);
  nn::Batch b;
  if (kind == "mlp") {
    b.inputs = tensor::Tensor({32, 64});
    for (auto& x : b.inputs.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    for (int i = 0; i < 32; ++i) {
      b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(10)));
    }
    return b;
  }
  for (int i = 0; i < 8; ++i) {
    const std::size_t len = 3 + rng.UniformInt(6);
    tensor::Tensor seq({len, 16});
    for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    b.sequences.push_back(std::move(seq));
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(8)));
  }
  return b;
}

/// One full training iteration on the flat staging-buffer path — the same
/// sequence every synchronization protocol drives per step.
struct TrainLoop {
  explicit TrainLoop(const std::string& kind)
      : net(MakeModel(kind)), batch(MakeBatchFor(kind)) {
    const std::size_t dim = net->ParamCount();
    params.resize(dim);
    grad.resize(dim);
    net->CopyParamsTo(params);
    opt = std::make_unique<nn::SgdMomentum>(dim, nn::SgdConfig{});
  }

  void Step() {
    net->SetParamsFrom(params);
    net->ForwardBackward(batch);
    net->CopyGradsTo(grad);
    opt->Step(params, grad);
  }

  std::unique_ptr<nn::Network> net;
  nn::Batch batch;
  std::vector<float> params, grad;
  std::unique_ptr<nn::SgdMomentum> opt;
};

const char* kModelKinds[] = {"mlp", "lstm", "deep-lstm", "transformer",
                             "attention"};

// ------------------------------------------- google-benchmark sweep mode

void BM_TrainStep(benchmark::State& state) {
  TrainLoop loop(kModelKinds[state.range(0)]);
  loop.Step();  // warm the arena to its high water
  for (auto _ : state) {
    loop.Step();
    benchmark::DoNotOptimize(loop.params.data());
  }
  state.SetLabel(kModelKinds[state.range(0)]);
}
BENCHMARK(BM_TrainStep)->DenseRange(0, 4);

// range(1): 0 = kAuto (widest kernels), 1 = scalar, 2 = 16-byte kernels.
void BM_BlockedMatMul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr common::simd::Dispatch kDispatches[] = {
      common::simd::Dispatch::kAuto, common::simd::Dispatch::kScalar,
      common::simd::Dispatch::kVec16};
  common::simd::SetDispatch(kDispatches[state.range(1)]);
  common::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.Normal(0, 1));
  for (auto& x : b) x = static_cast<float>(rng.Normal(0, 1));
  for (auto _ : state) {
    common::simd::MatMulNN(a.data(), b.data(), c.data(), n, n, n, 1.0f, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_BlockedMatMul)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({192, 0})
    ->Args({192, 1})
    ->Args({192, 2});

// ---------------------------------------------------------- json-out mode

struct MatShape {
  std::size_t m, k, n;
};

/// FLOP/s of one matmul variant at `shape` under the given dispatch. Small
/// shapes repeat until they have done the work of 20 calls at 128³.
template <typename Kernel>
double MeasureMatMulFlops(common::simd::Dispatch dispatch, MatShape shape,
                          Kernel&& kernel) {
  constexpr int kWarmup = 3;
  constexpr double kMinFlops = 20.0 * 2 * 128 * 128 * 128;
  const auto [m, k, n] = shape;
  const double flops = 2.0 * static_cast<double>(m) * k * n;
  const auto iters = static_cast<int>(std::ceil(kMinFlops / flops));
  common::simd::SetDispatch(dispatch);
  common::Rng rng(1);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& x : a) x = static_cast<float>(rng.Normal(0, 1));
  for (auto& x : b) x = static_cast<float>(rng.Normal(0, 1));
  for (int i = 0; i < kWarmup; ++i) kernel(a.data(), b.data(), c.data(), shape);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) kernel(a.data(), b.data(), c.data(), shape);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  common::simd::SetDispatch(common::simd::Dispatch::kAuto);
  return flops * iters / secs;
}

template <typename Kernel>
benchutil::BenchRow MatMulRow(const std::string& label, MatShape shape,
                              Kernel&& kernel) {
  benchutil::BenchRow row;
  row.label = label;
  const double wide =
      MeasureMatMulFlops(common::simd::Dispatch::kAuto, shape, kernel);
  const double narrow =
      MeasureMatMulFlops(common::simd::Dispatch::kScalar, shape, kernel);
  row.values["flops_auto_per_s"] = wide;
  row.values["flops_vec16_per_s"] =
      MeasureMatMulFlops(common::simd::Dispatch::kVec16, shape, kernel);
  row.values["flops_scalar_per_s"] = narrow;
  row.values["speedup"] = wide / narrow;
  return row;
}

void MatMulNNKernel(const float* a, const float* b, float* c, MatShape s) {
  common::simd::MatMulNN(a, b, c, s.m, s.k, s.n, 1.0f, 0.0f);
}
void MatMulNTKernel(const float* a, const float* b, float* c, MatShape s) {
  common::simd::MatMulNT(a, b, c, s.m, s.k, s.n, 1.0f, 0.0f);
}
void MatMulTNKernel(const float* a, const float* b, float* c, MatShape s) {
  common::simd::MatMulTN(a, b, c, s.m, s.k, s.n, 1.0f, 0.0f);
}

benchutil::BenchRow TrainStepRow(const std::string& kind) {
  constexpr int kWarmup = 3;
  constexpr int kIters = 30;
  benchutil::BenchRow row;
  row.label = "train_step_" + kind;
  TrainLoop loop(kind);
  for (int i = 0; i < kWarmup; ++i) loop.Step();

  const std::size_t heap_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) loop.Step();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::size_t heap_delta =
      g_heap_allocs.load(std::memory_order_relaxed) - heap_before;

  row.values["steps_per_s"] = kIters / secs;
  // Total heap allocations across all measured steps — the gate pins this
  // to an absolute ceiling of zero.
  row.values["steady_heap_allocs"] = static_cast<double>(heap_delta);
  row.values["arena_high_water_kb"] =
      static_cast<double>(loop.net->ComputeArena().Stats().short_high_water) /
      1024.0;
  return row;
}

int JsonMain(const std::string& path) {
  std::vector<benchutil::BenchRow> rows;
  const MatShape cube{128, 128, 128};
  rows.push_back(MatMulRow("matmul_nn_128", cube, MatMulNNKernel));
  rows.push_back(MatMulRow("matmul_nt_128", cube, MatMulNTKernel));
  rows.push_back(MatMulRow("matmul_tn_128", cube, MatMulTNKernel));
  // The benchmark transformer's attention shapes (head width 16, sequences
  // of 24 and 120 steps), where the 16-column tile and the NT dot-product
  // tile run at their real widths.
  rows.push_back(
      MatMulRow("matmul_nn_24x32x16", {24, 32, 16}, MatMulNNKernel));
  rows.push_back(
      MatMulRow("matmul_nn_120x120x16", {120, 120, 16}, MatMulNNKernel));
  rows.push_back(
      MatMulRow("matmul_tn_120x120x16", {120, 120, 16}, MatMulTNKernel));
  rows.push_back(
      MatMulRow("matmul_tn_32x120x16", {32, 120, 16}, MatMulTNKernel));
  rows.push_back(
      MatMulRow("matmul_nt_24x16x24", {24, 16, 24}, MatMulNTKernel));
  rows.push_back(
      MatMulRow("matmul_nt_120x16x120", {120, 16, 120}, MatMulNTKernel));
  for (const char* kind : kModelKinds) {
    rows.push_back(TrainStepRow(kind));
  }
  // kernel_isa names what flops_auto_per_s measured: the widest matmul
  // kernels this CPU runs (flops_vec16_per_s is always the 16-byte ones).
  benchutil::WriteBenchJson(path, "micro_nn", rows,
                            {{"kernel_isa", common::simd::KernelIsa()}});
  std::printf("kernel_isa=%s\n", common::simd::KernelIsa());
  for (const auto& row : rows) {
    std::printf("%-24s", row.label.c_str());
    for (const auto& [key, value] : row.values) {
      std::printf("  %s=%.4g", key.c_str(), value);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = arg.substr(11);
    } else {
      rest.push_back(argv[i]);
    }
  }
  if (!json_out.empty()) return JsonMain(json_out);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
