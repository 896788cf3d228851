#include "rna/nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "rna/common/check.hpp"
#include "rna/nn/init.hpp"
#include "rna/tensor/ops.hpp"

namespace rna::nn {

AttentionBlock::AttentionBlock(std::size_t input_dim, std::size_t attn_dim,
                               common::Rng& rng)
    : input_dim_(input_dim),
      attn_dim_(attn_dim),
      wq_({input_dim, attn_dim}),
      wk_({input_dim, attn_dim}),
      wv_({input_dim, attn_dim}),
      dwq_({input_dim, attn_dim}),
      dwk_({input_dim, attn_dim}),
      dwv_({input_dim, attn_dim}) {
  XavierUniform(wq_, input_dim, attn_dim, rng);
  XavierUniform(wk_, input_dim, attn_dim, rng);
  XavierUniform(wv_, input_dim, attn_dim, rng);
}

void AttentionBlock::ZeroGrads() {
  dwq_.Zero();
  dwk_.Zero();
  dwv_.Zero();
}

Tensor AttentionBlock::Forward(const Tensor& x) {
  RNA_CHECK_MSG(x.Cols() == input_dim_, "attention input width mismatch");
  const std::size_t steps = x.Rows();
  input_ = x;
  q_ = Tensor({steps, attn_dim_});
  k_ = Tensor({steps, attn_dim_});
  v_ = Tensor({steps, attn_dim_});
  tensor::MatMul(x, wq_, q_);
  tensor::MatMul(x, wk_, k_);
  tensor::MatMul(x, wv_, v_);

  attn_ = Tensor({steps, steps});
  const auto inv_sqrt =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(attn_dim_)));
  tensor::MatMulNT(q_, k_, attn_, inv_sqrt);
  tensor::SoftmaxRows(attn_);

  Tensor y({steps, attn_dim_});
  tensor::MatMul(attn_, v_, y);
  return y;
}

Tensor AttentionBlock::Backward(const Tensor& dy) {
  const std::size_t steps = input_.Rows();
  RNA_CHECK_MSG(dy.Rows() == steps && dy.Cols() == attn_dim_,
                "attention backward shape mismatch");
  const auto inv_sqrt =
      static_cast<float>(1.0 / std::sqrt(static_cast<double>(attn_dim_)));

  // Y = P·V  →  dP = dY·Vᵀ, dV = Pᵀ·dY.
  Tensor dp({steps, steps});
  tensor::MatMulNT(dy, v_, dp);
  Tensor dv({steps, attn_dim_});
  tensor::MatMulTN(attn_, dy, dv);

  // Row-softmax backward: dS_i = P_i ⊙ (dP_i − ⟨dP_i, P_i⟩).
  Tensor ds({steps, steps});
  tensor::SoftmaxRowsBackward(attn_, dp, ds);

  // S = (Q·Kᵀ)/√A  →  dQ = dS·K/√A, dK = dSᵀ·Q/√A.
  Tensor dq({steps, attn_dim_});
  tensor::MatMul(ds, k_, dq, inv_sqrt);
  Tensor dk({steps, attn_dim_});
  tensor::MatMulTN(ds, q_, dk, inv_sqrt);

  // Projection gradients and the input gradient.
  tensor::MatMulTN(input_, dq, dwq_, 1.0f, 1.0f);
  tensor::MatMulTN(input_, dk, dwk_, 1.0f, 1.0f);
  tensor::MatMulTN(input_, dv, dwv_, 1.0f, 1.0f);

  Tensor dx({steps, input_dim_});
  tensor::MatMulNT(dq, wq_, dx);
  tensor::MatMulNT(dk, wk_, dx, 1.0f, 1.0f);
  tensor::MatMulNT(dv, wv_, dx, 1.0f, 1.0f);
  return dx;
}

MultiHeadAttention::MultiHeadAttention(std::size_t input_dim,
                                       std::size_t head_dim,
                                       std::size_t heads, common::Rng& rng)
    : input_dim_(input_dim), head_dim_(head_dim) {
  RNA_CHECK_MSG(heads >= 1, "need at least one attention head");
  heads_.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    heads_.emplace_back(input_dim, head_dim, rng);
  }
}

Tensor MultiHeadAttention::Forward(const Tensor& x) {
  const std::size_t steps = x.Rows();
  Tensor out({steps, OutDim()});
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    const Tensor head_out = heads_[h].Forward(x);
    for (std::size_t t = 0; t < steps; ++t) {
      const float* src = head_out.Data() + t * head_dim_;
      float* dst = out.Data() + t * OutDim() + h * head_dim_;
      std::copy(src, src + head_dim_, dst);
    }
  }
  return out;
}

Tensor MultiHeadAttention::Backward(const Tensor& dy) {
  const std::size_t steps = dy.Rows();
  RNA_CHECK_MSG(dy.Cols() == OutDim(), "multi-head backward width mismatch");
  Tensor dx({steps, input_dim_});
  Tensor head_dy({steps, head_dim_});
  for (std::size_t h = 0; h < heads_.size(); ++h) {
    for (std::size_t t = 0; t < steps; ++t) {
      const float* src = dy.Data() + t * OutDim() + h * head_dim_;
      std::copy(src, src + head_dim_, head_dy.Data() + t * head_dim_);
    }
    const Tensor head_dx = heads_[h].Backward(head_dy);
    tensor::Axpy(1.0f, head_dx.Flat(), dx.Flat());
  }
  return dx;
}

std::vector<Tensor*> MultiHeadAttention::Params() {
  std::vector<Tensor*> out;
  for (auto& head : heads_) {
    for (auto* p : head.Params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> MultiHeadAttention::Grads() {
  std::vector<Tensor*> out;
  for (auto& head : heads_) {
    for (auto* g : head.Grads()) out.push_back(g);
  }
  return out;
}

void MultiHeadAttention::ZeroGrads() {
  for (auto& head : heads_) head.ZeroGrads();
}

}  // namespace rna::nn
