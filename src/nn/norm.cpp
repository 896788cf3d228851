#include "rna/nn/norm.hpp"

#include <cmath>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::nn {

// The double sums run row by row in their sequential order; only the
// elementwise passes are vectorized, which rounds every element alike.
#if RNA_SIMD_VECTOR_EXT
using common::simd::detail::kLanes;
using common::simd::detail::Load;
using common::simd::detail::Store;
using common::simd::detail::V4f;
#endif

LayerNorm::LayerNorm(std::size_t dim, float epsilon)
    : dim_(dim),
      epsilon_(epsilon),
      gain_({dim}),
      bias_({dim}),
      dgain_({dim}),
      dbias_({dim}) {
  gain_.Fill(1.0f);
}

Tensor LayerNorm::Forward(const Tensor& x) {
  RNA_CHECK_MSG(x.Cols() == dim_, "LayerNorm width mismatch");
  const std::size_t rows = x.Rows();
  normalized_ = Tensor({rows, dim_});
  inv_std_ = Tensor({rows});
  Tensor y({rows, dim_});
  const float* gain = gain_.Data();
  const float* bias = bias_.Data();
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
    const auto meanf = static_cast<float>(mean);
    float* nrow = normalized_.Data() + r * dim_;
    float* yrow = y.Data() + r * dim_;
    std::size_t i = 0;
#if RNA_SIMD_VECTOR_EXT
    for (; i + kLanes <= dim_; i += kLanes) {
      const V4f n = (Load(row + i) - meanf) * inv;
      Store(nrow + i, n);
      Store(yrow + i, Load(gain + i) * n + Load(bias + i));
    }
#endif
    for (; i < dim_; ++i) {
      nrow[i] = (row[i] - meanf) * inv;
      yrow[i] = gain[i] * nrow[i] + bias[i];
    }
  }
  return y;
}

Tensor LayerNorm::Backward(const Tensor& dy) {
  const std::size_t rows = normalized_.Rows();
  RNA_CHECK_MSG(dy.Rows() == rows && dy.Cols() == dim_,
                "LayerNorm backward shape mismatch");
  Tensor dx({rows, dim_});
  const auto n = static_cast<float>(dim_);
  const float* gain = gain_.Data();
  float* dgain = dgain_.Data();
  float* dbias = dbias_.Data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* dyrow = dy.Data() + r * dim_;
    const float* nrow = normalized_.Data() + r * dim_;
    float* dxrow = dx.Data() + r * dim_;
    // dL/dn̂ = dy ⊙ γ; dx = (1/σ)(dn̂ − mean(dn̂) − n̂·mean(dn̂ ⊙ n̂)).
    double sum_dn = 0.0, sum_dn_n = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const float dn = dyrow[i] * gain[i];
      sum_dn += dn;
      sum_dn_n += static_cast<double>(dn) * nrow[i];
    }
    const auto mean_dn = static_cast<float>(sum_dn / n);
    const auto mean_dn_n = static_cast<float>(sum_dn_n / n);
    const float inv = inv_std_[r];
    std::size_t i = 0;
#if RNA_SIMD_VECTOR_EXT
    for (; i + kLanes <= dim_; i += kLanes) {
      const V4f d = Load(dyrow + i);
      const V4f nv = Load(nrow + i);
      Store(dgain + i, Load(dgain + i) + d * nv);
      Store(dbias + i, Load(dbias + i) + d);
      Store(dxrow + i,
            inv * ((d * Load(gain + i) - mean_dn) - nv * mean_dn_n));
    }
#endif
    for (; i < dim_; ++i) {
      dgain[i] += dyrow[i] * nrow[i];
      dbias[i] += dyrow[i];
      const float dn = dyrow[i] * gain[i];
      dxrow[i] = inv * (dn - mean_dn - nrow[i] * mean_dn_n);
    }
  }
  return dx;
}

}  // namespace rna::nn
