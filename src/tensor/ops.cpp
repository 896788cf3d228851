#include "rna/tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::tensor {

namespace {

// The largest of row[0..cols), by std::max's rule: a NaN row[0] wins and
// any later NaN loses. Four lanes keep running maxima, so the result may
// be -0.0 where the sequential pass keeps +0.0 or the reverse; SoftmaxRows
// only feeds the peak to std::exp(x − peak), which gives the same bits for
// either zero.
float RowMax(const float* row, std::size_t cols) {
  float peak = row[0];
  std::size_t j = 1;
#if RNA_SIMD_VECTOR_EXT
  using common::simd::detail::kLanes;
  using common::simd::detail::V4f;
  if (j + kLanes <= cols) {
    V4f lanes = {peak, peak, peak, peak};
    for (; j + kLanes <= cols; j += kLanes) {
      const V4f x = common::simd::detail::Load(row + j);
      lanes = lanes < x ? x : lanes;
    }
    for (std::size_t l = 0; l < kLanes; ++l) peak = std::max(peak, lanes[l]);
  }
#endif
  for (; j < cols; ++j) peak = std::max(peak, row[j]);
  return peak;
}

void CheckMatMulShapes(std::size_t am, std::size_t ak, std::size_t bk,
                       std::size_t bn, const Tensor& c) {
  RNA_CHECK_MSG(ak == bk, "inner dimensions must match");
  RNA_CHECK_MSG(c.Rows() == am && c.Cols() == bn,
                "output shape does not match");
}

}  // namespace

// The three matmuls check shapes and delegate to the dispatching blocked
// kernels in rna/common/simd.hpp (scalar reference under Dispatch::kScalar).

void MatMul(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
            float beta) {
  const std::size_t m = a.Rows(), k = a.Cols(), n = b.Cols();
  CheckMatMulShapes(m, k, b.Rows(), n, c);
  common::simd::MatMulNN(a.Data(), b.Data(), c.Data(), m, k, n, alpha, beta);
}

void MatMulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
              float beta) {
  // C(m×n) = A(m×k) · Bᵀ, where B is stored n×k.
  const std::size_t m = a.Rows(), k = a.Cols(), n = b.Rows();
  RNA_CHECK_MSG(b.Cols() == k, "inner dimensions must match");
  RNA_CHECK_MSG(c.Rows() == m && c.Cols() == n, "output shape does not match");
  common::simd::MatMulNT(a.Data(), b.Data(), c.Data(), m, k, n, alpha, beta);
}

void MatMulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
              float beta) {
  // C(m×n) = Aᵀ · B, where A is stored k×m and B is stored k×n.
  const std::size_t k = a.Rows(), m = a.Cols(), n = b.Cols();
  RNA_CHECK_MSG(b.Rows() == k, "inner dimensions must match");
  RNA_CHECK_MSG(c.Rows() == m && c.Cols() == n, "output shape does not match");
  common::simd::MatMulTN(a.Data(), b.Data(), c.Data(), m, k, n, alpha, beta);
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  RNA_CHECK(x.size() == y.size());
  common::simd::WeightedAccumulate(y, x, alpha);
}

void Scale(std::span<float> x, float alpha) {
  common::simd::ScaleInto(x, alpha);
}

void Add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  RNA_CHECK(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
}

void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  RNA_CHECK(a.size() == b.size() && a.size() == out.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
}

double Dot(std::span<const float> a, std::span<const float> b) {
  RNA_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

void AddRowBroadcast(Tensor& matrix, std::span<const float> row) {
  RNA_CHECK(matrix.Cols() == row.size());
  const std::size_t rows = matrix.Rows(), cols = matrix.Cols();
  float* p = matrix.Data();
  for (std::size_t i = 0; i < rows; ++i) {
    float* mrow = p + i * cols;
    for (std::size_t j = 0; j < cols; ++j) mrow[j] += row[j];
  }
}

void SumRows(const Tensor& matrix, std::span<float> out) {
  RNA_CHECK(matrix.Cols() == out.size());
  std::fill(out.begin(), out.end(), 0.0f);
  const std::size_t rows = matrix.Rows(), cols = matrix.Cols();
  const float* p = matrix.Data();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* mrow = p + i * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += mrow[j];
  }
}

void SoftmaxRows(Tensor& logits) {
  const std::size_t rows = logits.Rows(), cols = logits.Cols();
  float* p = logits.Data();
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = p + i * cols;
    const float peak = RowMax(row, cols);
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - peak);
      sum += row[j];
    }
    common::simd::ScaleInto({row, cols}, static_cast<float>(1.0 / sum));
  }
}

void SoftmaxRowsBackward(const Tensor& probs, const Tensor& dprobs,
                         Tensor& dlogits) {
  RNA_CHECK(probs.SameShape(dprobs) && probs.SameShape(dlogits));
  const std::size_t rows = probs.Rows(), cols = probs.Cols();
  for (std::size_t i = 0; i < rows; ++i) {
    const float* prow = probs.Data() + i * cols;
    const float* dprow = dprobs.Data() + i * cols;
    float* drow = dlogits.Data() + i * cols;
    double inner = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      inner += static_cast<double>(dprow[j]) * prow[j];
    }
    const auto innerf = static_cast<float>(inner);
    std::size_t j = 0;
#if RNA_SIMD_VECTOR_EXT
    using common::simd::detail::Load;
    for (; j + common::simd::detail::kLanes <= cols;
         j += common::simd::detail::kLanes) {
      common::simd::detail::Store(drow + j,
                                  Load(prow + j) * (Load(dprow + j) - innerf));
    }
#endif
    for (; j < cols; ++j) drow[j] = prow[j] * (dprow[j] - innerf);
  }
}

}  // namespace rna::tensor
