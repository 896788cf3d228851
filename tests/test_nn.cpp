// Unit and property tests for the from-scratch NN library. The core
// correctness instrument is the central-difference gradient check: for each
// model family, analytic backprop gradients must match numeric gradients of
// the loss at randomly sampled parameter coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/data/generators.hpp"
#include "rna/nn/layer.hpp"
#include "rna/nn/loss.hpp"
#include "rna/nn/network.hpp"
#include "rna/nn/norm.hpp"
#include "rna/nn/optimizer.hpp"
#include "rna/tensor/ops.hpp"
#include "simd_widths.hpp"

namespace rna::nn {
namespace {

using tensor::Tensor;

Batch DenseBatch(std::size_t n, std::size_t dim, std::size_t classes,
                 std::uint64_t seed) {
  common::Rng rng(seed);
  Batch b;
  b.inputs = Tensor({n, dim});
  for (auto& x : b.inputs.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  for (std::size_t i = 0; i < n; ++i) {
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(classes)));
  }
  return b;
}

Batch SequenceBatch(std::size_t n, std::size_t dim, std::size_t classes,
                    std::uint64_t seed) {
  common::Rng rng(seed);
  Batch b;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 3 + rng.UniformInt(5);
    Tensor seq({len, dim});
    for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
    b.sequences.push_back(std::move(seq));
    b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(classes)));
  }
  return b;
}

/// Central-difference gradient check at `probes` random coordinates.
void CheckGradients(Network& net, const Batch& batch, std::size_t probes,
                    std::uint64_t seed) {
  const std::size_t dim = net.ParamCount();
  std::vector<float> params(dim), grad(dim);
  net.CopyParamsTo(params);
  net.SetParamsFrom(params);
  net.ForwardBackward(batch);
  net.CopyGradsTo(grad);

  common::Rng rng(seed);
  const float eps = 5e-3f;
  std::size_t outliers = 0;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t i = rng.UniformInt(dim);
    const float saved = params[i];
    params[i] = saved + eps;
    net.SetParamsFrom(params);
    const double lp = net.Evaluate(batch).loss;
    params[i] = saved - eps;
    net.SetParamsFrom(params);
    const double lm = net.Evaluate(batch).loss;
    params[i] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double analytic = grad[i];
    const double tol = 1e-2 + 5e-2 * std::max(std::abs(analytic),
                                              std::abs(numeric));
    // A perturbation can cross a ReLU kink, where the one-sided derivative
    // legitimately disagrees with backprop; tolerate a few such probes.
    if (std::abs(analytic - numeric) > tol) ++outliers;
  }
  EXPECT_LE(outliers, probes / 20 + 1)
      << "too many analytic/numeric gradient mismatches";
}

TEST(Dense, ForwardKnownValues) {
  common::Rng rng(1);
  Dense layer(2, 2, rng);
  // Overwrite weights with known values.
  auto params = layer.Params();
  (*params[0]).At(0, 0) = 1.0f;
  (*params[0]).At(0, 1) = 2.0f;
  (*params[0]).At(1, 0) = 3.0f;
  (*params[0]).At(1, 1) = 4.0f;
  (*params[1])[0] = 0.5f;
  (*params[1])[1] = -0.5f;
  Tensor x({1, 2}, {1.0f, 1.0f});
  Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(y[1], 5.5f);   // 2+4-0.5
}

TEST(Dense, BackwardShapes) {
  common::Rng rng(2);
  Dense layer(3, 5, rng);
  Tensor x({4, 3});
  layer.Forward(x);
  Tensor dy({4, 5});
  Tensor dx = layer.Backward(dy);
  EXPECT_EQ(dx.Rows(), 4u);
  EXPECT_EQ(dx.Cols(), 3u);
}

TEST(Activations, ReluMasksNegatives) {
  Relu relu;
  Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor y = relu.Forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({1, 4}, {1.0f, 1.0f, 1.0f, 1.0f});
  Tensor dx = relu.Backward(dy);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[2], 1.0f);
}

TEST(Activations, SigmoidRange) {
  Sigmoid sig;
  Tensor x({1, 3}, {-10.0f, 0.0f, 10.0f});
  Tensor y = sig.Forward(x);
  EXPECT_NEAR(y[0], 0.0f, 1e-4f);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
  EXPECT_NEAR(y[2], 1.0f, 1e-4f);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5, 1);
  drop.SetTraining(false);
  Tensor x({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor y = drop.Forward(x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainModePreservesExpectation) {
  Dropout drop(0.3, 2);
  Tensor x({1, 1}, {1.0f});
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += drop.Forward(x)[0];
  EXPECT_NEAR(sum / trials, 1.0, 0.03);  // inverted dropout keeps E[y]=x
}

TEST(Loss, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over 4 classes → loss = ln 4.
  Tensor logits({2, 4});
  LossResult r = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient rows sum to zero (softmax minus one-hot).
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 4; ++j) s += r.dlogits.At(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  LossResult r = SoftmaxCrossEntropy(logits, {0});
  EXPECT_LT(r.loss, 1e-4);
  EXPECT_EQ(r.correct, 1u);
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW(SoftmaxCrossEntropy(logits, {5}), std::logic_error);
}

TEST(GradCheck, Mlp) {
  MlpClassifier net({6, 16, 8, 3}, 11);
  Batch batch = DenseBatch(5, 6, 3, 21);
  CheckGradients(net, batch, 60, 31);
}

TEST(GradCheck, Lstm) {
  LstmClassifier net(4, 8, 3, 12, /*dropout_rate=*/0.0);
  Batch batch = SequenceBatch(3, 4, 3, 22);
  CheckGradients(net, batch, 60, 32);
}

TEST(GradCheck, Attention) {
  AttentionClassifier net(4, 6, 3, 13);
  Batch batch = SequenceBatch(3, 4, 3, 23);
  CheckGradients(net, batch, 60, 33);
}

TEST(GradCheck, DeepLstm) {
  DeepLstmClassifier net(4, 6, 2, 3, 14);
  Batch batch = SequenceBatch(3, 4, 3, 24);
  CheckGradients(net, batch, 60, 34);
}

TEST(GradCheck, Transformer) {
  TransformerClassifier net(4, 8, 2, 3, 15);
  Batch batch = SequenceBatch(3, 4, 3, 25);
  CheckGradients(net, batch, 80, 35);
}

TEST(LayerNormUnit, NormalizesRows) {
  LayerNorm norm(4);
  Tensor x({2, 4}, {1.0f, 2.0f, 3.0f, 4.0f, 10.0f, 10.0f, 10.0f, 10.0f});
  Tensor y = norm.Forward(x);
  // Row 0: zero mean, unit variance under the default γ=1, β=0.
  double mean = 0, var = 0;
  for (std::size_t i = 0; i < 4; ++i) mean += y.At(0, i);
  mean /= 4;
  for (std::size_t i = 0; i < 4; ++i) {
    var += (y.At(0, i) - mean) * (y.At(0, i) - mean);
  }
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var / 4, 1.0, 1e-3);
  // Row 1 is constant → normalized to ~0 (epsilon guards the division).
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y.At(1, i), 0.0, 1e-3);
}

TEST(LayerNormUnit, GainBiasApplied) {
  LayerNorm norm(2);
  (*norm.Params()[0])[0] = 2.0f;  // γ₀
  (*norm.Params()[1])[1] = 5.0f;  // β₁
  Tensor x({1, 2}, {-1.0f, 1.0f});
  Tensor y = norm.Forward(x);
  EXPECT_NEAR(y[0], -2.0f, 1e-3);  // normalized −1 scaled by γ=2
  EXPECT_NEAR(y[1], 6.0f, 1e-3);   // normalized +1 plus β=5
}

TEST(MultiHead, OutputConcatenatesHeads) {
  common::Rng rng(3);
  MultiHeadAttention mha(4, 3, 2, rng);
  EXPECT_EQ(mha.OutDim(), 6u);
  Tensor x({5, 4});
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  Tensor y = mha.Forward(x);
  EXPECT_EQ(y.Rows(), 5u);
  EXPECT_EQ(y.Cols(), 6u);
  EXPECT_EQ(mha.Params().size(), 6u);  // Wq/Wk/Wv per head
}

TEST(StackedLstm, SequenceApiMatchesFinalState) {
  common::Rng rng(4);
  LstmLayer lstm(3, 5, rng);
  Tensor x({7, 3});
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  Tensor h_final = lstm.Forward(x);
  Tensor h_all = lstm.ForwardSequence(x);
  ASSERT_EQ(h_all.Rows(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(h_all.At(6, i), h_final[i]);
  }
}

TEST(Adam, StepsTowardMinimum) {
  // Minimize f(x) = (x − 3)², gradient 2(x − 3).
  Adam opt(1, {.learning_rate = 0.1});
  std::vector<float> x = {0.0f};
  for (int i = 0; i < 400; ++i) {
    const std::vector<float> grad = {2.0f * (x[0] - 3.0f)};
    opt.Step(x, grad);
  }
  EXPECT_NEAR(x[0], 3.0f, 0.05f);
  EXPECT_EQ(opt.StepsTaken(), 400u);
}

TEST(Adam, FirstStepIsLearningRateSized) {
  // With bias correction the very first Adam step ≈ lr·sign(g).
  Adam opt(1, {.learning_rate = 0.01});
  std::vector<float> x = {0.0f};
  opt.Step(x, std::vector<float>{5.0f});
  EXPECT_NEAR(x[0], -0.01f, 1e-4f);
}

TEST(Adam, LrScaleApplies) {
  Adam opt(1, {.learning_rate = 0.01});
  std::vector<float> x = {0.0f};
  opt.Step(x, std::vector<float>{5.0f}, 0.5);
  EXPECT_NEAR(x[0], -0.005f, 1e-4f);
}

TEST(Network, ParamRoundTrip) {
  MlpClassifier net({4, 8, 2}, 5);
  const std::size_t dim = net.ParamCount();
  EXPECT_EQ(dim, 4u * 8 + 8 + 8 * 2 + 2);
  std::vector<float> params(dim);
  net.CopyParamsTo(params);
  std::vector<float> modified = params;
  for (auto& p : modified) p += 1.0f;
  net.SetParamsFrom(modified);
  std::vector<float> readback(dim);
  net.CopyParamsTo(readback);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_FLOAT_EQ(readback[i], params[i] + 1.0f);
  }
}

TEST(Network, SameSeedSameParams) {
  MlpClassifier a({5, 7, 2}, 99), b({5, 7, 2}, 99);
  std::vector<float> pa(a.ParamCount()), pb(b.ParamCount());
  a.CopyParamsTo(pa);
  b.CopyParamsTo(pb);
  EXPECT_EQ(pa, pb);
}

TEST(Network, LstmParamCount) {
  LstmClassifier net(8, 16, 4, 1);
  // Wx: 8×64, Wh: 16×64, b: 64, head W: 16×4, head b: 4.
  EXPECT_EQ(net.ParamCount(), 8u * 64 + 16 * 64 + 64 + 16 * 4 + 4);
}

TEST(Network, TrainingReducesLoss) {
  // A few plain-SGD steps on a separable problem must reduce the loss.
  data::Dataset ds = data::MakeGaussianClusters(256, 8, 3, 0.3, 77);
  MlpClassifier net({8, 32, 3}, 7);
  const std::size_t dim = net.ParamCount();
  std::vector<float> params(dim), grad(dim);
  net.CopyParamsTo(params);
  SgdMomentum opt(dim, {.learning_rate = 0.2, .momentum = 0.9});

  std::vector<std::size_t> all(ds.Size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  Batch batch = ds.MakeBatch(all);

  net.SetParamsFrom(params);
  const double initial = net.Evaluate(batch).loss;
  for (int step = 0; step < 60; ++step) {
    net.SetParamsFrom(params);
    net.ForwardBackward(batch);
    net.CopyGradsTo(grad);
    opt.Step(params, grad);
  }
  net.SetParamsFrom(params);
  const auto after = net.Evaluate(batch);
  EXPECT_LT(after.loss, initial * 0.5);
  EXPECT_GT(after.Accuracy(), 0.8);
}

TEST(Optimizer, PlainSgdStep) {
  SgdMomentum opt(2, {.learning_rate = 0.1, .momentum = 0.0});
  std::vector<float> params = {1.0f, 2.0f};
  const std::vector<float> grad = {1.0f, -1.0f};
  opt.Step(params, grad);
  EXPECT_FLOAT_EQ(params[0], 0.9f);
  EXPECT_FLOAT_EQ(params[1], 2.1f);
}

TEST(Optimizer, MomentumAccumulates) {
  SgdMomentum opt(1, {.learning_rate = 1.0, .momentum = 0.5});
  std::vector<float> params = {0.0f};
  const std::vector<float> grad = {1.0f};
  opt.Step(params, grad);  // v=1, p=-1
  EXPECT_FLOAT_EQ(params[0], -1.0f);
  opt.Step(params, grad);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(params[0], -2.5f);
}

TEST(Optimizer, LrScaleShrinksStep) {
  SgdMomentum opt(1, {.learning_rate = 1.0, .momentum = 0.0});
  std::vector<float> params = {0.0f};
  const std::vector<float> grad = {1.0f};
  opt.Step(params, grad, 0.25);
  EXPECT_FLOAT_EQ(params[0], -0.25f);
}

TEST(Optimizer, WeightDecayPullsTowardZero) {
  SgdMomentum opt(1, {.learning_rate = 0.1, .momentum = 0.0,
                      .weight_decay = 1.0});
  std::vector<float> params = {10.0f};
  const std::vector<float> grad = {0.0f};
  opt.Step(params, grad);
  EXPECT_FLOAT_EQ(params[0], 9.0f);
}

// Gradient-check sweep over MLP architectures.
class MlpGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(MlpGradSweep, GradientsMatch) {
  const int hidden = GetParam();
  MlpClassifier net({4, static_cast<std::size_t>(hidden), 2},
                    1000 + hidden);
  Batch batch = DenseBatch(4, 4, 2, 2000 + hidden);
  CheckGradients(net, batch, 30, 3000 + hidden);
}

INSTANTIATE_TEST_SUITE_P(Hidden, MlpGradSweep, ::testing::Values(1, 4, 16, 33));

// ---------------------------------------------------------------------------
// Arena/SIMD equivalence: the arena-allocated compute plane with the tiled
// vectorized kernels, at every vector width this CPU runs, must produce
// BITWISE-identical training trajectories to the naive pre-arena path (heap
// temporaries + scalar kernels). This is the contract that makes the arena
// a pure memory optimization and the matmul tiling a pure speed
// optimization — neither may perturb training.

using testutil::ScopedDispatch;
using testutil::VectorDispatches;

// Names the widths ArenaEquivalence ran; skips visibly on a host that runs
// only the 16-byte kernels.
TEST(MatMulWidths, BothWidthsUnderTest) {
  if (!testutil::ReportWidthsUnderTest()) {
    GTEST_SKIP() << "only the " << testutil::WidthsUnderTest()
                 << "-byte matmul kernels ran on this host";
  }
}

std::unique_ptr<Network> EquivModel(const std::string& kind) {
  if (kind == "mlp") {
    return std::make_unique<MlpClassifier>(std::vector<std::size_t>{9, 17, 4},
                                           7);
  }
  // Dropout stays ON for the LSTM: both paths must consume identical Rng
  // streams, so mask draws are part of the equivalence contract.
  if (kind == "lstm") return std::make_unique<LstmClassifier>(5, 13, 4, 7);
  if (kind == "deep-lstm") {
    return std::make_unique<DeepLstmClassifier>(5, 11, 2, 4, 7);
  }
  if (kind == "transformer") {
    return std::make_unique<TransformerClassifier>(5, 16, 2, 4, 7);
  }
  // The benchmark's transformer: head width 16 fills the NN/TN kernels'
  // full 16-column tile, which the head width 8 above never reaches.
  if (kind == "transformer-bench") {
    return std::make_unique<TransformerClassifier>(6, 32, 2, 6, 7);
  }
  return std::make_unique<AttentionClassifier>(5, 11, 4, 7);
}

Batch EquivBatch(const std::string& kind) {
  if (kind == "mlp") return DenseBatch(7, 9, 4, 41);
  if (kind == "transformer-bench") {
    // Sequence lengths up to the benchmark's longest sentences.
    common::Rng rng(41);
    Batch b;
    for (const std::size_t len : {120, 57, 24, 5}) {
      Tensor seq({len, 6});
      for (auto& x : seq.Flat()) x = static_cast<float>(rng.Normal(0, 1));
      b.sequences.push_back(std::move(seq));
      b.labels.push_back(static_cast<std::int32_t>(rng.UniformInt(6)));
    }
    return b;
  }
  return SequenceBatch(5, 5, 4, 41);
}

struct TrainTrace {
  std::vector<double> losses;
  std::vector<float> grads;
  std::vector<float> params;
};

TrainTrace RunTrainTrace(const std::string& kind, bool arena,
                         common::simd::Dispatch dispatch, int iters) {
  ScopedDispatch guard(dispatch);
  auto net = EquivModel(kind);
  net->EnableArena(arena);
  const Batch batch = EquivBatch(kind);

  const std::size_t dim = net->ParamCount();
  TrainTrace trace;
  trace.params.resize(dim);
  trace.grads.resize(dim);
  net->CopyParamsTo(trace.params);
  SgdMomentum opt(dim, {.learning_rate = 0.05, .momentum = 0.9});
  for (int i = 0; i < iters; ++i) {
    net->SetParamsFrom(trace.params);
    trace.losses.push_back(net->ForwardBackward(batch).loss);
    net->CopyGradsTo(trace.grads);
    opt.Step(trace.params, trace.grads);
  }
  return trace;
}

void ExpectBitwiseEqual(std::span<const float> a, std::span<const float> b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    if (ba != bb) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << ": " << mismatches << "/" << a.size()
                            << " floats differ bitwise";
}

class ArenaEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(ArenaEquivalence, BitwiseIdenticalToNaivePath) {
  const int kIters = 4;
  const TrainTrace naive =
      RunTrainTrace(GetParam(), /*arena=*/false,
                    common::simd::Dispatch::kScalar, kIters);
  for (const auto& width : VectorDispatches()) {
    SCOPED_TRACE(::testing::Message() << width.bytes << "-byte kernels");
    const TrainTrace fast =
        RunTrainTrace(GetParam(), /*arena=*/true, width.dispatch, kIters);
    ASSERT_EQ(fast.losses.size(), naive.losses.size());
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(fast.losses[i], naive.losses[i])
          << "loss diverged at iteration " << i;
    }
    ExpectBitwiseEqual(fast.grads, naive.grads, "final gradients");
    ExpectBitwiseEqual(fast.params, naive.params, "final parameters");
  }
}

// The two switches are independent; flipping only one must also be exact.
TEST_P(ArenaEquivalence, ArenaAloneIsExact) {
  const TrainTrace on = RunTrainTrace(GetParam(), /*arena=*/true,
                                      common::simd::Dispatch::kScalar, 3);
  const TrainTrace off = RunTrainTrace(GetParam(), /*arena=*/false,
                                       common::simd::Dispatch::kScalar, 3);
  EXPECT_EQ(on.losses, off.losses);
  ExpectBitwiseEqual(on.params, off.params, "final parameters");
}

TEST_P(ArenaEquivalence, VectorizedKernelsAloneAreExact) {
  const TrainTrace sca = RunTrainTrace(GetParam(), /*arena=*/true,
                                       common::simd::Dispatch::kScalar, 3);
  for (const auto& width : VectorDispatches()) {
    SCOPED_TRACE(::testing::Message() << width.bytes << "-byte kernels");
    const TrainTrace vec =
        RunTrainTrace(GetParam(), /*arena=*/true, width.dispatch, 3);
    EXPECT_EQ(vec.losses, sca.losses);
    ExpectBitwiseEqual(vec.params, sca.params, "final parameters");
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ArenaEquivalence,
                         ::testing::Values("mlp", "lstm", "deep-lstm",
                                           "transformer", "transformer-bench",
                                           "attention"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Row kernels: SoftmaxRows, LayerNorm forward/backward and the softmax
// backward row vectorize only their elementwise passes, so each must match
// the scalar loops below bit for bit under every dispatch. The loops are the
// kernels' earlier scalar bodies, kept as they were. Rows of every length
// 1-130 cover each vector-width remainder; special rows hold ±Inf, a NaN
// first or later, and a zero peak reached as both -0.0 and +0.0.

Tensor RandomTensorLike(const Tensor& like, common::Rng& rng) {
  Tensor t(like.Shape());
  for (auto& v : t.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  return t;
}

namespace ref {

void SoftmaxRows(Tensor& logits) {
  const std::size_t rows = logits.Rows(), cols = logits.Cols();
  float* p = logits.Data();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = p + i * cols;
    float peak = row[0];
    for (std::size_t j = 1; j < cols; ++j) peak = std::max(peak, row[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - peak);
      sum += row[j];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (std::size_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

void SoftmaxRowsBackward(const Tensor& attn_, const Tensor& dp, Tensor& ds) {
  const std::size_t steps = attn_.Cols();
  for (std::size_t i = 0; i < attn_.Rows(); ++i) {
    const float* prow = attn_.Data() + i * steps;
    const float* dprow = dp.Data() + i * steps;
    double inner = 0.0;
    for (std::size_t j = 0; j < steps; ++j)
      inner += static_cast<double>(dprow[j]) * prow[j];
    float* dsrow = ds.Data() + i * steps;
    for (std::size_t j = 0; j < steps; ++j)
      dsrow[j] = prow[j] * (dprow[j] - static_cast<float>(inner));
  }
}

struct LayerNorm {
  LayerNorm(std::size_t dim, const Tensor& gain, const Tensor& bias)
      : dim_(dim),
        gain_(gain),
        bias_(bias),
        dgain_({dim}),
        dbias_({dim}) {}

  Tensor Forward(const Tensor& x) {
    const std::size_t rows = x.Rows();
    normalized_ = Tensor({rows, dim_});
    inv_std_ = Tensor({rows});
    Tensor y({rows, dim_});
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = x.Data() + r * dim_;
      double mean = 0.0;
      for (std::size_t i = 0; i < dim_; ++i) mean += row[i];
      mean /= static_cast<double>(dim_);
      double var = 0.0;
      for (std::size_t i = 0; i < dim_; ++i) {
        const double d = row[i] - mean;
        var += d * d;
      }
      var /= static_cast<double>(dim_);
      const auto inv = static_cast<float>(1.0 / std::sqrt(var + epsilon_));
      inv_std_[r] = inv;
      float* nrow = normalized_.Data() + r * dim_;
      float* yrow = y.Data() + r * dim_;
      for (std::size_t i = 0; i < dim_; ++i) {
        nrow[i] = (row[i] - static_cast<float>(mean)) * inv;
        yrow[i] = gain_[i] * nrow[i] + bias_[i];
      }
    }
    return y;
  }

  Tensor Backward(const Tensor& dy) {
    const std::size_t rows = normalized_.Rows();
    Tensor dx({rows, dim_});
    const auto n = static_cast<float>(dim_);
    for (std::size_t r = 0; r < rows; ++r) {
      const float* dyrow = dy.Data() + r * dim_;
      const float* nrow = normalized_.Data() + r * dim_;
      float* dxrow = dx.Data() + r * dim_;
      double sum_dn = 0.0, sum_dn_n = 0.0;
      for (std::size_t i = 0; i < dim_; ++i) {
        const float dn = dyrow[i] * gain_[i];
        sum_dn += dn;
        sum_dn_n += static_cast<double>(dn) * nrow[i];
        dgain_[i] += dyrow[i] * nrow[i];
        dbias_[i] += dyrow[i];
      }
      const auto mean_dn = static_cast<float>(sum_dn / n);
      const auto mean_dn_n = static_cast<float>(sum_dn_n / n);
      for (std::size_t i = 0; i < dim_; ++i) {
        const float dn = dyrow[i] * gain_[i];
        dxrow[i] = inv_std_[r] * (dn - mean_dn - nrow[i] * mean_dn_n);
      }
    }
    return dx;
  }

  std::size_t dim_;
  float epsilon_ = 1e-5f;
  Tensor gain_, bias_, dgain_, dbias_;
  Tensor normalized_, inv_std_;
};

}  // namespace ref

// Seven rows of length `cols`: random, a zero peak as -0.0 then +0.0 among
// negatives, +Inf, -Inf, NaN first, NaN later, and a spread wide enough for
// exp to underflow to 0.
Tensor SpecialRows(std::size_t cols, common::Rng& rng) {
  constexpr std::size_t kRows = 7;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t({kRows, cols});
  for (auto& x : t.Flat()) x = static_cast<float>(rng.Normal(0, 3));
  auto row = [&](std::size_t r) { return t.Data() + r * cols; };
  for (std::size_t j = 0; j < cols; ++j) row(1)[j] = -std::abs(row(1)[j]);
  row(1)[cols / 3] = -0.0f;
  row(1)[cols - 1] = 0.0f;
  row(2)[cols / 2] = inf;
  row(3)[cols / 2] = -inf;
  row(4)[0] = nan;
  row(5)[cols - 1] = nan;
  for (std::size_t j = 0; j < cols; ++j) row(6)[j] *= 40.0f;
  return t;
}

// Same bits everywhere, except that any two NaNs match: where two NaNs of
// different sign meet in one add or multiply, x86 returns the first
// operand's, and the compiler may order a commutative operation's operands
// either way (an ASan build ordered dgain's `+=` differently from a plain
// one).
void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.SameShape(want)) << what;
  std::size_t mismatches = 0;
  const float* g = got.Data();
  const float* w = want.Data();
  for (std::size_t i = 0; i < got.Size(); ++i) {
    if (std::isnan(g[i]) && std::isnan(w[i])) continue;
    if (std::memcmp(g + i, w + i, sizeof(float)) != 0) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << what << " differs bitwise";
}

// The dispatches the row kernels run under: the scalar one and every
// vector width (softmax's scale pass is the dispatching ScaleInto).
std::vector<common::simd::Dispatch> RowKernelDispatches() {
  std::vector<common::simd::Dispatch> out = {common::simd::Dispatch::kScalar};
  for (const auto& width : VectorDispatches()) out.push_back(width.dispatch);
  return out;
}

TEST(RowKernelWidths, BothWidthsUnderTest) {
  if (!testutil::ReportWidthsUnderTest()) {
    GTEST_SKIP() << "only the " << testutil::WidthsUnderTest()
                 << "-byte matmul kernels ran on this host";
  }
}

TEST(RowKernels, SoftmaxRowsMatchesScalarLoopBitwise) {
  for (const auto dispatch : RowKernelDispatches()) {
    ScopedDispatch guard(dispatch);
    for (std::size_t cols = 1; cols <= 130; ++cols) {
      SCOPED_TRACE(::testing::Message() << "cols " << cols);
      common::Rng rng(cols);
      const Tensor logits = SpecialRows(cols, rng);
      Tensor want = logits;
      ref::SoftmaxRows(want);
      Tensor got = logits;
      tensor::SoftmaxRows(got);
      ExpectSameBits(got, want, "softmax");
    }
  }
}

TEST(RowKernels, SoftmaxRowsBackwardMatchesScalarLoopBitwise) {
  for (const auto dispatch : RowKernelDispatches()) {
    ScopedDispatch guard(dispatch);
    for (std::size_t cols = 1; cols <= 130; ++cols) {
      SCOPED_TRACE(::testing::Message() << "cols " << cols);
      common::Rng rng(1000 + cols);
      Tensor probs = SpecialRows(cols, rng);
      ref::SoftmaxRows(probs);
      // Special values in dP too: its rows are the probabilities' rows
      // rotated by one.
      const Tensor special = SpecialRows(cols, rng);
      Tensor dprobs(special.Shape());
      for (std::size_t r = 0; r < special.Rows(); ++r) {
        const std::size_t from = (r + 1) % special.Rows();
        std::copy(special.Data() + from * cols,
                  special.Data() + (from + 1) * cols,
                  dprobs.Data() + r * cols);
      }
      Tensor want(probs.Shape());
      ref::SoftmaxRowsBackward(probs, dprobs, want);
      Tensor got(probs.Shape());
      tensor::SoftmaxRowsBackward(probs, dprobs, got);
      ExpectSameBits(got, want, "softmax backward");
    }
  }
}

TEST(RowKernels, LayerNormMatchesScalarLoopsBitwise) {
  for (const auto dispatch : RowKernelDispatches()) {
    ScopedDispatch guard(dispatch);
    for (std::size_t cols = 1; cols <= 130; ++cols) {
      SCOPED_TRACE(::testing::Message() << "cols " << cols);
      common::Rng rng(2000 + cols);
      LayerNorm norm(cols);
      for (Tensor* p : norm.Params()) {
        for (auto& v : p->Flat()) v = static_cast<float>(rng.Normal(0, 1));
      }
      ref::LayerNorm want(cols, *norm.Params()[0], *norm.Params()[1]);
      const Tensor x = SpecialRows(cols, rng);
      ExpectSameBits(norm.Forward(x), want.Forward(x), "layernorm forward");
      // Two backward passes, so dgain/dbias also accumulate.
      for (int pass = 0; pass < 2; ++pass) {
        Tensor dy = RandomTensorLike(x, rng);
        dy.Data()[0] = -0.0f;
        ExpectSameBits(norm.Backward(dy), want.Backward(dy),
                       "layernorm backward");
      }
      ExpectSameBits(*norm.Grads()[0], want.dgain_, "dgain");
      ExpectSameBits(*norm.Grads()[1], want.dbias_, "dbias");
    }
  }
}

}  // namespace
}  // namespace rna::nn
