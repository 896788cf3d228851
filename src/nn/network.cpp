#include "rna/nn/network.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

const std::vector<tensor::Tensor*>& Network::CachedParams() {
  if (param_cache_.empty()) param_cache_ = Params();
  return param_cache_;
}

const std::vector<tensor::Tensor*>& Network::CachedGrads() {
  if (grad_cache_.empty()) grad_cache_ = Grads();
  return grad_cache_;
}

std::size_t Network::ParamCount() {
  if (cached_param_count_ == 0) {
    for (tensor::Tensor* p : CachedParams()) cached_param_count_ += p->Size();
  }
  return cached_param_count_;
}

void Network::ZeroGrads() {
  for (tensor::Tensor* g : CachedGrads()) g->Zero();
}

void Network::CopyParamsTo(std::span<float> out) {
  RNA_CHECK_MSG(out.size() == ParamCount(), "param buffer size mismatch");
  std::size_t offset = 0;
  for (tensor::Tensor* p : CachedParams()) {
    auto flat = p->Flat();
    std::copy(flat.begin(), flat.end(), out.begin() + offset);
    offset += flat.size();
  }
}

void Network::SetParamsFrom(std::span<const float> in) {
  RNA_CHECK_MSG(in.size() == ParamCount(), "param buffer size mismatch");
  std::size_t offset = 0;
  for (tensor::Tensor* p : CachedParams()) {
    auto flat = p->Flat();
    std::copy(in.begin() + offset, in.begin() + offset + flat.size(),
              flat.begin());
    offset += flat.size();
  }
}

void Network::CopyGradsTo(std::span<float> out) {
  RNA_CHECK_MSG(out.size() == ParamCount(), "grad buffer size mismatch");
  std::size_t offset = 0;
  for (tensor::Tensor* g : CachedGrads()) {
    auto flat = g->Flat();
    std::copy(flat.begin(), flat.end(), out.begin() + offset);
    offset += flat.size();
  }
}

// ---------------------------------------------------------------- MLP

MlpClassifier::MlpClassifier(std::vector<std::size_t> dims, std::uint64_t seed,
                             std::string name)
    : name_(std::move(name)) {
  RNA_CHECK_MSG(dims.size() >= 2, "MLP needs at least input and output dims");
  common::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    if (i + 2 < dims.size()) layers_.push_back(std::make_unique<Relu>());
  }
}

tensor::Tensor MlpClassifier::ForwardLogits(const Batch& batch) {
  RNA_CHECK_MSG(batch.sequences.empty(), "MLP takes dense inputs");
  tensor::Tensor x = batch.inputs;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

BatchResult MlpClassifier::ForwardBackward(const Batch& batch) {
  ComputeScope scope(*this);
  ZeroGrads();
  tensor::Tensor logits = ForwardLogits(batch);
  LossResult lr = SoftmaxCrossEntropy(logits, batch.labels);
  tensor::Tensor grad = std::move(lr.dlogits);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(grad);
  }
  return {lr.loss, lr.correct, batch.labels.size()};
}

BatchResult MlpClassifier::Evaluate(const Batch& batch) {
  ComputeScope scope(*this);
  tensor::Tensor logits = ForwardLogits(batch);
  LossResult lr = SoftmaxCrossEntropy(logits, batch.labels);
  return {lr.loss, lr.correct, batch.labels.size()};
}

std::vector<tensor::Tensor*> MlpClassifier::Params() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<tensor::Tensor*> MlpClassifier::Grads() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* g : layer->Grads()) out.push_back(g);
  }
  return out;
}

// ---------------------------------------------------------------- LSTM

LstmClassifier::LstmClassifier(std::size_t input_dim, std::size_t hidden_dim,
                               std::size_t classes, std::uint64_t seed,
                               double dropout_rate)
    : lstm_([&] {
        common::Rng rng(seed);
        return LstmLayer(input_dim, hidden_dim, rng);
      }()),
      dropout_(dropout_rate, seed ^ 0x9e3779b97f4a7c15ULL),
      head_([&] {
        common::Rng rng(seed + 1);
        return Dense(hidden_dim, classes, rng);
      }()) {}

BatchResult LstmClassifier::Run(const Batch& batch, bool train) {
  RNA_CHECK_MSG(!batch.sequences.empty(), "LSTM takes sequence inputs");
  RNA_CHECK(batch.sequences.size() == batch.labels.size());
  if (train) ZeroGrads();
  dropout_.SetTraining(train);

  BatchResult result;
  result.total = batch.labels.size();
  const auto inv_batch =
      static_cast<float>(1.0 / static_cast<double>(batch.labels.size()));

  for (std::size_t s = 0; s < batch.sequences.size(); ++s) {
    ComputeScope scope(*this);  // per sequence: see ComputeScope
    tensor::Tensor h = lstm_.Forward(batch.sequences[s]);
    tensor::Tensor hd = dropout_.Forward(h);
    tensor::Tensor logits = head_.Forward(hd);
    LossResult lr = SoftmaxCrossEntropy(logits, {batch.labels[s]});
    result.loss += lr.loss;
    result.correct += lr.correct;
    if (train) {
      // Per-sample loss is already mean-normalized inside SCE (batch of 1),
      // so scale by 1/B to make accumulated grads the batch average.
      tensor::Scale(lr.dlogits.Flat(), inv_batch);
      tensor::Tensor dh = head_.Backward(lr.dlogits);
      dh = dropout_.Backward(dh);
      lstm_.Backward(dh);
    }
  }
  result.loss /= static_cast<double>(batch.labels.size());
  return result;
}

BatchResult LstmClassifier::ForwardBackward(const Batch& batch) {
  return Run(batch, /*train=*/true);
}

BatchResult LstmClassifier::Evaluate(const Batch& batch) {
  return Run(batch, /*train=*/false);
}

std::vector<tensor::Tensor*> LstmClassifier::Params() {
  std::vector<tensor::Tensor*> out = lstm_.Params();
  for (auto* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<tensor::Tensor*> LstmClassifier::Grads() {
  std::vector<tensor::Tensor*> out = lstm_.Grads();
  for (auto* g : head_.Grads()) out.push_back(g);
  return out;
}

// ---------------------------------------------------------------- Deep LSTM

DeepLstmClassifier::DeepLstmClassifier(std::size_t input_dim,
                                       std::size_t hidden_dim,
                                       std::size_t layers,
                                       std::size_t classes,
                                       std::uint64_t seed)
    : head_([&] {
        common::Rng rng(seed + 999);
        return Dense(hidden_dim, classes, rng);
      }()) {
  RNA_CHECK_MSG(layers >= 1, "need at least one LSTM layer");
  common::Rng rng(seed);
  layers_.reserve(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    layers_.emplace_back(l == 0 ? input_dim : hidden_dim, hidden_dim, rng);
  }
}

BatchResult DeepLstmClassifier::Run(const Batch& batch, bool train) {
  RNA_CHECK_MSG(!batch.sequences.empty(), "deep LSTM takes sequence inputs");
  if (train) ZeroGrads();
  BatchResult result;
  result.total = batch.labels.size();
  const auto inv_batch =
      static_cast<float>(1.0 / static_cast<double>(batch.labels.size()));

  for (std::size_t s = 0; s < batch.sequences.size(); ++s) {
    ComputeScope scope(*this);  // per sequence: see ComputeScope
    // Forward: each layer consumes the full hidden sequence of the one
    // below; the head reads the top layer's final state.
    tensor::Tensor h = batch.sequences[s];
    for (auto& layer : layers_) h = layer.ForwardSequence(h);
    const std::size_t steps = h.Rows();
    const std::size_t hidden = h.Cols();
    tensor::Tensor h_final({1, hidden});
    const float* last = h.Data() + (steps - 1) * hidden;
    for (std::size_t i = 0; i < hidden; ++i) h_final[i] = last[i];

    tensor::Tensor logits = head_.Forward(h_final);
    LossResult lr = SoftmaxCrossEntropy(logits, {batch.labels[s]});
    result.loss += lr.loss;
    result.correct += lr.correct;
    if (train) {
      tensor::Scale(lr.dlogits.Flat(), inv_batch);
      tensor::Tensor dh_final = head_.Backward(lr.dlogits);  // 1×H
      // Seed the top layer's sequence gradient with the final-state grad,
      // then BPTT downward layer by layer.
      tensor::Tensor dh_all({steps, hidden});
      float* dst = dh_all.Data() + (steps - 1) * hidden;
      for (std::size_t i = 0; i < hidden; ++i) dst[i] = dh_final[i];
      for (std::size_t l = layers_.size(); l-- > 0;) {
        dh_all = layers_[l].BackwardSequence(dh_all);
      }
    }
  }
  result.loss /= static_cast<double>(batch.labels.size());
  return result;
}

BatchResult DeepLstmClassifier::ForwardBackward(const Batch& batch) {
  return Run(batch, /*train=*/true);
}

BatchResult DeepLstmClassifier::Evaluate(const Batch& batch) {
  return Run(batch, /*train=*/false);
}

std::vector<tensor::Tensor*> DeepLstmClassifier::Params() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* p : layer.Params()) out.push_back(p);
  }
  for (auto* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<tensor::Tensor*> DeepLstmClassifier::Grads() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* g : layer.Grads()) out.push_back(g);
  }
  for (auto* g : head_.Grads()) out.push_back(g);
  return out;
}

// ------------------------------------------------------------- Transformer

TransformerClassifier::TransformerClassifier(std::size_t input_dim,
                                             std::size_t model_dim,
                                             std::size_t heads,
                                             std::size_t classes,
                                             std::uint64_t seed)
    : proj_([&] {
        common::Rng rng(seed);
        return Dense(input_dim, model_dim, rng);
      }()),
      mha_([&] {
        RNA_CHECK_MSG(model_dim % heads == 0,
                      "model_dim must be divisible by heads");
        common::Rng rng(seed + 1);
        return MultiHeadAttention(model_dim, model_dim / heads, heads, rng);
      }()),
      norm_(model_dim),
      head_([&] {
        common::Rng rng(seed + 2);
        return Dense(model_dim, classes, rng);
      }()) {}

BatchResult TransformerClassifier::Run(const Batch& batch, bool train) {
  RNA_CHECK_MSG(!batch.sequences.empty(),
                "transformer takes sequence inputs");
  if (train) ZeroGrads();
  BatchResult result;
  result.total = batch.labels.size();
  const std::size_t model_dim = norm_.Dim();
  const auto inv_batch =
      static_cast<float>(1.0 / static_cast<double>(batch.labels.size()));

  for (std::size_t s = 0; s < batch.sequences.size(); ++s) {
    ComputeScope scope(*this);  // per sequence: see ComputeScope
    const tensor::Tensor& x = batch.sequences[s];
    const std::size_t steps = x.Rows();

    tensor::Tensor h0 = proj_.Forward(x);          // T×M
    tensor::Tensor attn = mha_.Forward(h0);        // T×M
    tensor::Tensor residual({steps, model_dim});
    tensor::Add(h0.Flat(), attn.Flat(), residual.Flat());
    tensor::Tensor normed = norm_.Forward(residual);

    tensor::Tensor pooled({1, model_dim});
    tensor::SumRows(normed, pooled.Flat());
    tensor::Scale(pooled.Flat(), 1.0f / static_cast<float>(steps));
    tensor::Tensor logits = head_.Forward(pooled);

    LossResult lr = SoftmaxCrossEntropy(logits, {batch.labels[s]});
    result.loss += lr.loss;
    result.correct += lr.correct;

    if (train) {
      tensor::Scale(lr.dlogits.Flat(), inv_batch);
      tensor::Tensor dpooled = head_.Backward(lr.dlogits);
      // Un-pool: every step's row is dpooled / steps.
      tensor::Tensor dnormed({steps, model_dim});
      const float scale = 1.0f / static_cast<float>(steps);
      float* drow = dnormed.Data();
      for (std::size_t i = 0; i < model_dim; ++i) drow[i] = dpooled[i] * scale;
      for (std::size_t t = 1; t < steps; ++t) {
        std::copy(drow, drow + model_dim, drow + t * model_dim);
      }
      tensor::Tensor dresidual = norm_.Backward(dnormed);
      // Residual split: dL/dh0 = dresidual (skip path) + MHA backward.
      tensor::Tensor dh0 = mha_.Backward(dresidual);
      tensor::Axpy(1.0f, dresidual.Flat(), dh0.Flat());
      proj_.BackwardParams(dh0);  // the input x takes no gradient
    }
  }
  result.loss /= static_cast<double>(batch.labels.size());
  return result;
}

BatchResult TransformerClassifier::ForwardBackward(const Batch& batch) {
  return Run(batch, /*train=*/true);
}

BatchResult TransformerClassifier::Evaluate(const Batch& batch) {
  return Run(batch, /*train=*/false);
}

std::vector<tensor::Tensor*> TransformerClassifier::Params() {
  std::vector<tensor::Tensor*> out;
  for (auto* p : proj_.Params()) out.push_back(p);
  for (auto* p : mha_.Params()) out.push_back(p);
  for (auto* p : norm_.Params()) out.push_back(p);
  for (auto* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<tensor::Tensor*> TransformerClassifier::Grads() {
  std::vector<tensor::Tensor*> out;
  for (auto* g : proj_.Grads()) out.push_back(g);
  for (auto* g : mha_.Grads()) out.push_back(g);
  for (auto* g : norm_.Grads()) out.push_back(g);
  for (auto* g : head_.Grads()) out.push_back(g);
  return out;
}

// ---------------------------------------------------------------- Attention

AttentionClassifier::AttentionClassifier(std::size_t input_dim,
                                         std::size_t attn_dim,
                                         std::size_t classes,
                                         std::uint64_t seed)
    : attention_([&] {
        common::Rng rng(seed);
        return AttentionBlock(input_dim, attn_dim, rng);
      }()),
      head_([&] {
        common::Rng rng(seed + 1);
        return Dense(attn_dim, classes, rng);
      }()) {}

BatchResult AttentionClassifier::Run(const Batch& batch, bool train) {
  RNA_CHECK_MSG(!batch.sequences.empty(), "attention takes sequence inputs");
  RNA_CHECK(batch.sequences.size() == batch.labels.size());
  if (train) ZeroGrads();

  BatchResult result;
  result.total = batch.labels.size();
  const auto inv_batch =
      static_cast<float>(1.0 / static_cast<double>(batch.labels.size()));

  for (std::size_t s = 0; s < batch.sequences.size(); ++s) {
    ComputeScope scope(*this);  // per sequence: see ComputeScope
    const tensor::Tensor& x = batch.sequences[s];
    const std::size_t steps = x.Rows();
    tensor::Tensor y = attention_.Forward(x);  // T×A

    // Mean-pool over time.
    tensor::Tensor pooled({1, attention_.AttnDim()});
    tensor::SumRows(y, pooled.Flat());
    tensor::Scale(pooled.Flat(), 1.0f / static_cast<float>(steps));

    tensor::Tensor logits = head_.Forward(pooled);
    LossResult lr = SoftmaxCrossEntropy(logits, {batch.labels[s]});
    result.loss += lr.loss;
    result.correct += lr.correct;

    if (train) {
      tensor::Scale(lr.dlogits.Flat(), inv_batch);
      tensor::Tensor dpooled = head_.Backward(lr.dlogits);  // 1×A
      // Un-pool: every timestep row receives dpooled / T.
      tensor::Tensor dy({steps, attention_.AttnDim()});
      const float scale = 1.0f / static_cast<float>(steps);
      for (std::size_t t = 0; t < steps; ++t) {
        for (std::size_t a = 0; a < attention_.AttnDim(); ++a) {
          dy.At(t, a) = dpooled[a] * scale;
        }
      }
      attention_.Backward(dy);
    }
  }
  result.loss /= static_cast<double>(batch.labels.size());
  return result;
}

BatchResult AttentionClassifier::ForwardBackward(const Batch& batch) {
  return Run(batch, /*train=*/true);
}

BatchResult AttentionClassifier::Evaluate(const Batch& batch) {
  return Run(batch, /*train=*/false);
}

std::vector<tensor::Tensor*> AttentionClassifier::Params() {
  std::vector<tensor::Tensor*> out = attention_.Params();
  for (auto* p : head_.Params()) out.push_back(p);
  return out;
}

std::vector<tensor::Tensor*> AttentionClassifier::Grads() {
  std::vector<tensor::Tensor*> out = attention_.Grads();
  for (auto* g : head_.Grads()) out.push_back(g);
  return out;
}

}  // namespace rna::nn
