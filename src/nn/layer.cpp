#include "rna/nn/layer.hpp"

#include <cmath>

#include "rna/common/check.hpp"
#include "rna/nn/init.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

void Layer::ZeroGrads() {
  for (Tensor* g : Grads()) g->Zero();
}

Dense::Dense(std::size_t in, std::size_t out, common::Rng& rng)
    : in_(in),
      out_(out),
      w_({in, out}),
      b_({out}),
      dw_({in, out}),
      db_({out}) {
  XavierUniform(w_, in, out, rng);
}

Tensor Dense::Forward(const Tensor& x) {
  RNA_CHECK_MSG(x.Cols() == in_, "Dense input width mismatch");
  cached_input_ = x;
  Tensor y({x.Rows(), out_});
  tensor::MatMul(x, w_, y);
  tensor::AddRowBroadcast(y, b_.Flat());
  return y;
}

void Dense::BackwardParams(const Tensor& dy) {
  RNA_CHECK_MSG(dy.Rows() == cached_input_.Rows() && dy.Cols() == out_,
                "Dense backward shape mismatch");
  // dW += Xᵀ·dY, db += column sums.
  tensor::MatMulTN(cached_input_, dy, dw_, 1.0f, 1.0f);
  Tensor col_sums({out_});
  tensor::SumRows(dy, col_sums.Flat());
  tensor::Axpy(1.0f, col_sums.Flat(), db_.Flat());
}

Tensor Dense::Backward(const Tensor& dy) {
  BackwardParams(dy);
  // dX = dY·Wᵀ.
  Tensor dx({cached_input_.Rows(), in_});
  tensor::MatMulNT(dy, w_, dx);
  return dx;
}

Tensor Relu::Forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y = x;
  for (auto& v : y.Flat()) v = v > 0.0f ? v : 0.0f;
  return y;
}

Tensor Relu::Backward(const Tensor& dy) {
  RNA_CHECK(dy.SameShape(cached_input_));
  Tensor dx = dy;
  auto in = cached_input_.Flat();
  auto out = dx.Flat();
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (in[i] <= 0.0f) out[i] = 0.0f;
  }
  return dx;
}

Tensor Tanh::Forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.Flat()) v = std::tanh(v);
  cached_output_ = y;
  return y;
}

Tensor Tanh::Backward(const Tensor& dy) {
  RNA_CHECK(dy.SameShape(cached_output_));
  Tensor dx = dy;
  auto out = cached_output_.Flat();
  auto d = dx.Flat();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= 1.0f - out[i] * out[i];
  return dx;
}

Tensor Sigmoid::Forward(const Tensor& x) {
  Tensor y = x;
  for (auto& v : y.Flat()) v = 1.0f / (1.0f + std::exp(-v));
  cached_output_ = y;
  return y;
}

Tensor Sigmoid::Backward(const Tensor& dy) {
  RNA_CHECK(dy.SameShape(cached_output_));
  Tensor dx = dy;
  auto out = cached_output_.Flat();
  auto d = dx.Flat();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= out[i] * (1.0f - out[i]);
  return dx;
}

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  RNA_CHECK_MSG(rate >= 0.0 && rate < 1.0, "dropout rate must be in [0, 1)");
}

Tensor Dropout::Forward(const Tensor& x) {
  if (!training_ || rate_ == 0.0) {
    mask_ = Tensor();
    return x;
  }
  mask_ = Tensor(x.Shape());
  const auto keep = static_cast<float>(1.0 / (1.0 - rate_));
  auto m = mask_.Flat();
  for (auto& v : m) v = rng_.Bernoulli(rate_) ? 0.0f : keep;
  Tensor y(x.Shape());
  tensor::Hadamard(x.Flat(), m, y.Flat());
  return y;
}

Tensor Dropout::Backward(const Tensor& dy) {
  if (mask_.Empty()) return dy;
  RNA_CHECK(dy.SameShape(mask_));
  Tensor dx(dy.Shape());
  tensor::Hadamard(dy.Flat(), mask_.Flat(), dx.Flat());
  return dx;
}

}  // namespace rna::nn
