// Unit tests for rna::tensor — tensor container semantics and the matmul /
// elementwise kernels backpropagation depends on, checked against naive
// reference implementations on random inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "rna/common/rng.hpp"
#include "rna/common/simd.hpp"
#include "rna/tensor/ops.hpp"
#include "rna/tensor/tensor.hpp"
#include "simd_widths.hpp"

namespace rna::tensor {
namespace {

Tensor RandomTensor(std::size_t r, std::size_t c, common::Rng& rng) {
  Tensor t({r, c});
  for (auto& x : t.Flat()) x = static_cast<float>(rng.Normal(0, 1));
  return t;
}

// Naive O(mnk) reference matmul.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.Rows(), b.Cols()});
  for (std::size_t i = 0; i < a.Rows(); ++i) {
    for (std::size_t j = 0; j < b.Cols(); ++j) {
      double acc = 0;
      for (std::size_t k = 0; k < a.Cols(); ++k) {
        acc += double(a.At(i, k)) * b.At(k, j);
      }
      c.At(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor t({a.Cols(), a.Rows()});
  for (std::size_t i = 0; i < a.Rows(); ++i) {
    for (std::size_t j = 0; j < a.Cols(); ++j) t.At(j, i) = a.At(i, j);
  }
  return t;
}

void ExpectNear(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  for (std::size_t i = 0; i < a.Size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.Size(), 12u);
  for (auto x : t.Flat()) EXPECT_EQ(x, 0.0f);
}

TEST(Tensor, ShapeAccessors) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.Rank(), 3u);
  EXPECT_EQ(t.Rows(), 2u);
  EXPECT_EQ(t.Cols(), 12u);  // trailing dims collapse
  Tensor v({5});
  EXPECT_EQ(v.Rows(), 1u);
  EXPECT_EQ(v.Cols(), 5u);
}

TEST(Tensor, AtIndexing) {
  Tensor t({2, 3});
  t.At(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_THROW(t.At(2, 0), std::logic_error);
  EXPECT_THROW(t.At(0, 3), std::logic_error);
}

TEST(Tensor, DataShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), std::logic_error);
}

TEST(Tensor, ReshapePreservesCount) {
  Tensor t({2, 6});
  t.Reshape({3, 4});
  EXPECT_EQ(t.Rows(), 3u);
  EXPECT_THROW(t.Reshape({5, 5}), std::logic_error);
}

TEST(Tensor, SumAndNorm) {
  Tensor t({1, 3}, {1.0f, -2.0f, 3.0f});
  EXPECT_DOUBLE_EQ(t.Sum(), 2.0);
  EXPECT_DOUBLE_EQ(t.SquaredNorm(), 14.0);
}

TEST(Ops, MatMulMatchesReference) {
  common::Rng rng(1);
  for (auto [m, k, n] : {std::tuple<int, int, int>{1, 1, 1},
                         {3, 4, 5},
                         {7, 2, 9},
                         {16, 16, 16}}) {
    Tensor a = RandomTensor(m, k, rng);
    Tensor b = RandomTensor(k, n, rng);
    Tensor c({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
    MatMul(a, b, c);
    ExpectNear(c, RefMatMul(a, b));
  }
}

TEST(Ops, MatMulAlphaBeta) {
  common::Rng rng(2);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor b = RandomTensor(4, 2, rng);
  Tensor c = RandomTensor(3, 2, rng);
  Tensor expected = c;
  Tensor ab = RefMatMul(a, b);
  for (std::size_t i = 0; i < expected.Size(); ++i) {
    expected[i] = 2.0f * ab[i] + 0.5f * expected[i];
  }
  MatMul(a, b, c, 2.0f, 0.5f);
  ExpectNear(c, expected);
}

TEST(Ops, MatMulNTMatchesTransposedReference) {
  common::Rng rng(3);
  Tensor a = RandomTensor(5, 7, rng);
  Tensor b = RandomTensor(4, 7, rng);  // stored n×k
  Tensor c({5, 4});
  MatMulNT(a, b, c);
  ExpectNear(c, RefMatMul(a, Transpose(b)));
}

TEST(Ops, MatMulTNMatchesTransposedReference) {
  common::Rng rng(4);
  Tensor a = RandomTensor(7, 5, rng);  // stored k×m
  Tensor b = RandomTensor(7, 3, rng);
  Tensor c({5, 3});
  MatMulTN(a, b, c);
  ExpectNear(c, RefMatMul(Transpose(a), b));
}

TEST(Ops, MatMulTNAccumulates) {
  common::Rng rng(5);
  Tensor a = RandomTensor(4, 3, rng);
  Tensor b = RandomTensor(4, 2, rng);
  Tensor c = RandomTensor(3, 2, rng);
  Tensor expected = RefMatMul(Transpose(a), b);
  for (std::size_t i = 0; i < expected.Size(); ++i) expected[i] += c[i];
  MatMulTN(a, b, c, 1.0f, 1.0f);
  ExpectNear(c, expected);
}

TEST(Ops, ShapeMismatchThrows) {
  Tensor a({2, 3}), b({4, 5}), c({2, 5});
  EXPECT_THROW(MatMul(a, b, c), std::logic_error);
}

TEST(Ops, AxpyScaleDot) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  Axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[2], 36.0f);
  Scale(y, 0.5f);
  EXPECT_EQ(y[0], 6.0f);
  EXPECT_DOUBLE_EQ(Dot(x, x), 14.0);
}

TEST(Ops, AddAndHadamard) {
  std::vector<float> a = {1, 2}, b = {3, 4}, out(2);
  Add(a, b, out);
  EXPECT_EQ(out[1], 6.0f);
  Hadamard(a, b, out);
  EXPECT_EQ(out[1], 8.0f);
}

TEST(Ops, AddRowBroadcastAndSumRows) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<float> row = {10, 20, 30};
  AddRowBroadcast(m, row);
  EXPECT_EQ(m.At(0, 0), 11.0f);
  EXPECT_EQ(m.At(1, 2), 36.0f);
  std::vector<float> sums(3);
  SumRows(m, sums);
  EXPECT_EQ(sums[0], 11.0f + 14.0f);
  EXPECT_EQ(sums[2], 33.0f + 36.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  common::Rng rng(6);
  Tensor t = RandomTensor(5, 8, rng);
  SoftmaxRows(t);
  for (std::size_t i = 0; i < 5; ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      sum += t.At(i, j);
      EXPECT_GE(t.At(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  Tensor t({1, 3}, {1000.0f, 1001.0f, 1002.0f});
  SoftmaxRows(t);
  EXPECT_FALSE(std::isnan(t[0]));
  EXPECT_GT(t[2], t[1]);
  EXPECT_GT(t[1], t[0]);
  EXPECT_NEAR(t[0] + t[1] + t[2], 1.0f, 1e-5f);
}

// Property sweep: MatMul agrees with the reference over a grid of shapes.
class MatMulShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, AgreesWithReference) {
  auto [m, k, n] = GetParam();
  common::Rng rng(100 + m * 31 + k * 7 + n);
  Tensor a = RandomTensor(m, k, rng);
  Tensor b = RandomTensor(k, n, rng);
  Tensor c({static_cast<std::size_t>(m), static_cast<std::size_t>(n)});
  MatMul(a, b, c);
  ExpectNear(c, RefMatMul(a, b));
}

INSTANTIATE_TEST_SUITE_P(Grid, MatMulShapes,
                         ::testing::Combine(::testing::Values(1, 2, 5, 17),
                                            ::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 4, 13)));

// ---------------------------------------------------------------------------
// Tiled kernel contract: for every transpose variant and every vector width
// this CPU runs (kAuto's widest and the forced 16-byte kernels), the result
// must be BITWISE identical to the scalar reference — not merely close. The
// sweep leans on awkward shapes: 1×1, primes (never a multiple of the
// vector width), k=0 (empty reduction), tall/skinny and short/fat extremes,
// m around the 2- and 4-row tiles, n around the 16-column tile, its 8- and
// 4-wide remainders and the NT 4- and 8-column tiles, every k % 8 (the NT
// tail), and the benchmark transformer's attention shapes.

using testutil::ScopedDispatch;
using testutil::VectorDispatches;

// Names the widths the bitwise suites below ran, and skips visibly when
// the CPU runs only one: a host without AVX2 checks the 16-byte kernels
// alone, and says so instead of passing silently.
TEST(MatMulWidths, BothWidthsUnderTest) {
  if (!testutil::ReportWidthsUnderTest()) {
    GTEST_SKIP() << "only the " << testutil::WidthsUnderTest()
                 << "-byte matmul kernels ran on this host";
  }
}

void ExpectBitwise(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (std::size_t i = 0; i < a.Size(); ++i) {
    const float fa = a[i];
    const float fb = b[i];
    std::uint32_t ba, bb;
    std::memcpy(&ba, &fa, sizeof(ba));
    std::memcpy(&bb, &fb, sizeof(bb));
    ASSERT_EQ(ba, bb) << "bitwise mismatch at flat index " << i << ": " << fa
                      << " vs " << fb;
  }
}

struct MatMulCase {
  std::size_t m, k, n;
  float alpha, beta;
};

class MatMulBitwise : public ::testing::TestWithParam<MatMulCase> {};

// Runs NN, NT and TN on the operands of C(m×n) = A(m×k)·B(k×n) under every
// vector width and the scalar dispatch and requires bitwise-equal results.
void ExpectVariantsBitwise(const Tensor& a, const Tensor& b,
                           const Tensor& c_init, float alpha, float beta) {
  Tensor at = Transpose(a);  // k×m operand for the TN variant
  Tensor bt = Transpose(b);  // n×k operand for the NT variant
  struct Variant {
    const char* name;
    void (*run)(const Tensor&, const Tensor&, Tensor&, float, float);
    const Tensor* lhs;
    const Tensor* rhs;
  };
  const Variant variants[] = {
      {"NN", [](const Tensor& x, const Tensor& y, Tensor& c, float al,
                float be) { MatMul(x, y, c, al, be); },
       &a, &b},
      {"NT", [](const Tensor& x, const Tensor& y, Tensor& c, float al,
                float be) { MatMulNT(x, y, c, al, be); },
       &a, &bt},
      {"TN", [](const Tensor& x, const Tensor& y, Tensor& c, float al,
                float be) { MatMulTN(x, y, c, al, be); },
       &at, &b},
  };
  for (const auto& v : variants) {
    SCOPED_TRACE(v.name);
    Tensor c_scalar = c_init;
    {
      ScopedDispatch scalar(common::simd::Dispatch::kScalar);
      v.run(*v.lhs, *v.rhs, c_scalar, alpha, beta);
    }
    for (const auto& width : VectorDispatches()) {
      SCOPED_TRACE(::testing::Message() << width.bytes << "-byte kernels");
      ScopedDispatch vec(width.dispatch);
      Tensor c_vec = c_init;
      v.run(*v.lhs, *v.rhs, c_vec, alpha, beta);
      ExpectBitwise(c_vec, c_scalar);
    }
  }
}

TEST_P(MatMulBitwise, VectorizedMatchesScalarBitwise) {
  const auto [m, k, n, alpha, beta] = GetParam();
  common::Rng rng(7 + m * 131 + k * 17 + n * 3);
  Tensor a = RandomTensor(m, k, rng);
  Tensor b = RandomTensor(k, n, rng);
  // Non-trivial beta needs non-trivial initial C, shared by both paths.
  Tensor c_init = RandomTensor(m, n, rng);
  ExpectVariantsBitwise(a, b, c_init, alpha, beta);
}

INSTANTIATE_TEST_SUITE_P(
    AwkwardShapes, MatMulBitwise,
    ::testing::Values(
        MatMulCase{1, 1, 1, 1.0f, 0.0f},       // degenerate
        MatMulCase{1, 1, 1, -2.5f, 0.75f},     // degenerate + alpha/beta
        MatMulCase{3, 0, 5, 1.0f, 0.0f},       // k=0: pure beta pass
        MatMulCase{3, 0, 5, 1.0f, 0.5f},       // k=0 with beta scaling
        MatMulCase{7, 11, 13, 1.0f, 0.0f},     // all primes
        MatMulCase{7, 11, 13, 0.5f, 1.0f},     // primes, accumulate mode
        MatMulCase{2, 63, 129, 1.0f, 0.0f},    // straddles both block edges
        MatMulCase{2, 64, 128, 1.0f, 0.0f},    // exactly on block edges
        MatMulCase{2, 65, 127, 1.0f, 0.0f},    // just past / just short
        MatMulCase{97, 3, 2, 1.0f, 0.0f},      // tall and skinny
        MatMulCase{2, 3, 97, 1.0f, 0.0f},      // short and fat
        MatMulCase{5, 8, 8, 1.0f, -1.0f},      // vector-width aligned, β<0
        MatMulCase{16, 67, 31, 2.0f, 0.25f},   // k past one block, odd n
        MatMulCase{1, 200, 1, 1.0f, 0.0f},     // dot-product shaped
        MatMulCase{3, 9, 15, 1.0f, 0.0f},      // odd m, n around tile edges
        MatMulCase{5, 16, 16, -1.5f, 1.0f},
        MatMulCase{7, 17, 17, 1.0f, 0.5f},
        MatMulCase{9, 8, 31, 0.5f, 0.0f},
        MatMulCase{11, 33, 32, 1.0f, 1.0f},
        MatMulCase{13, 5, 33, 2.0f, 0.5f},
        MatMulCase{24, 32, 16, 1.0f, 0.0f},    // Q/K/V projection
        MatMulCase{120, 120, 16, 1.0f, 0.0f},  // P·V, dV, dK at length 120
        MatMulCase{32, 120, 16, 1.0f, 1.0f},   // projection-weight gradient
        MatMulCase{120, 16, 120, 0.25f, 0.0f},  // attention scores
        // m around the 2- and 4-row tiles, one full 16-column strip (n =
        // 32 and 48: two and three), k % 8 = 1..7.
        MatMulCase{3, 17, 16, 1.0f, 0.0f},
        MatMulCase{4, 10, 16, 0.5f, 1.0f},
        MatMulCase{5, 11, 32, 1.0f, 0.0f},
        MatMulCase{6, 12, 16, -1.0f, 0.5f},
        MatMulCase{7, 13, 48, 1.0f, 0.0f},
        MatMulCase{8, 14, 16, 2.0f, 1.0f},
        MatMulCase{9, 15, 16, 1.0f, 0.0f},
        // NT n around the 4- and 8-column tiles (and NN/TN n in the 8- and
        // 4-wide remainders and scalar tail), with every k % 8.
        MatMulCase{2, 9, 7, 1.0f, 0.0f},
        MatMulCase{3, 16, 8, 1.0f, 0.5f},
        MatMulCase{4, 10, 9, -0.5f, 0.0f},
        MatMulCase{5, 19, 12, 1.0f, 1.0f},
        MatMulCase{3, 20, 15, 1.0f, 0.0f},
        MatMulCase{6, 29, 17, 0.25f, 0.0f},
        MatMulCase{1, 23, 31, 1.0f, 0.0f},
        MatMulCase{4, 7, 24, 1.0f, 0.5f},   // k < 8: NT tail only
        MatMulCase{1, 33, 1, 1.0f, 0.0f},   // one dot product
        MatMulCase{1, 64, 96, 1.0f, 1.0f}));  // LSTM-style single row

// Zeros must take the same skip path under every dispatch (the tiled NN/TN
// kernels skip av==0 rows; the scalar references must skip identically).
TEST(MatMulBitwiseZeros, SparseInputsMatchBitwise) {
  common::Rng rng(99);
  Tensor a = RandomTensor(9, 33, rng);
  for (std::size_t i = 0; i < a.Size(); i += 3) a.Flat()[i] = 0.0f;
  Tensor b = RandomTensor(33, 21, rng);
  Tensor c_scalar({9, 21});
  {
    ScopedDispatch scalar(common::simd::Dispatch::kScalar);
    MatMul(a, b, c_scalar);
  }
  for (const auto& width : VectorDispatches()) {
    SCOPED_TRACE(::testing::Message() << width.bytes << "-byte kernels");
    ScopedDispatch vec(width.dispatch);
    Tensor c_vec({9, 21});
    MatMul(a, b, c_vec);
    ExpectBitwise(c_vec, c_scalar);
  }
}

// The skip is decided per row of a tile: a row whose alpha·a is ±0 skips
// that k while its neighbours add. Nine rows put a ±0 row in every position
// of the 4-row tiles (rows 0-3, 4-7) and of the 2-row tiles, and in the
// 1-row tail (row 8). Skipping matters bitwise: 0·±Inf is NaN, and
// -0.0 + 0·b is +0.0, so C starts at -0.0 and every B row holds ±Inf
// inside the 16-wide tile, plus in the 8-wide and 4-wide remainders and the
// scalar tail: each ±0 in A is a visible skip.
TEST(MatMulBitwiseZeros, PerRowSkipInsideTile) {
  common::Rng rng(5);
  Tensor a({9, 3}, {0.0f, 0.0f, 0.0f,      // whole row skipped (position 0)
                    1.5f, -2.0f, 0.5f,     // its neighbour never skips
                    -0.0f, 3.0f, 0.0f,     // skips k=0 and k=2 (position 2)
                    2.0f, 0.0f, -1.0f,     // skips k=1 (position 3)
                    0.5f, 1.0f, 2.5f,      // never skips
                    -0.0f, -0.0f, -0.0f,   // whole row skipped (position 1)
                    1.0f, -0.5f, -0.0f,    // skips k=2 (position 2)
                    -3.0f, 2.0f, 1.0f,     // never skips
                    0.0f, -0.0f, 0.0f});   // lone last row, all skipped
  Tensor b = RandomTensor(3, 31, rng);
  const float inf = std::numeric_limits<float>::infinity();
  b.At(0, 5) = inf;
  b.At(1, 9) = -inf;
  b.At(2, 12) = inf;
  b.At(1, 17) = -inf;
  b.At(2, 26) = inf;
  b.At(0, 30) = -inf;
  Tensor c_init({9, 31});
  c_init.Fill(-0.0f);
  ExpectVariantsBitwise(a, b, c_init, 1.0f, 1.0f);
}

// ---------------------------------------------------------------------------
// Dense path. The NN/TN kernels scan alpha·A first and, when no product is
// ±0, run their tiles without the per-row skip. The grid crosses the
// benchmark transformer's shapes (k and n of 6, 16, 24 and 32; m and k up
// to 120) with every alpha and beta the models pass, on a zero-free A and
// on A with one ±0 at its first, a middle and its last element (the scan's
// first chunk, interior and scalar tail). B(kk, 0) = +Inf under each zero
// makes a missed skip visible: 0·Inf is NaN. A subnormal A entry is a
// product that is zero only under alpha < 1, so the scan must multiply as
// the kernel does.

TEST(MatMulDenseWidths, BothWidthsUnderTest) {
  if (!testutil::ReportWidthsUnderTest()) {
    GTEST_SKIP() << "only the " << testutil::WidthsUnderTest()
                 << "-byte matmul kernels ran on this host";
  }
}

class MatMulDense
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulDense, EveryWidthMatchesScalarBitwise) {
  const auto [mi, ki, ni] = GetParam();
  const auto m = static_cast<std::size_t>(mi);
  const auto k = static_cast<std::size_t>(ki);
  const auto n = static_cast<std::size_t>(ni);
  common::Rng rng(11 + m * 131 + k * 17 + n * 3);
  const Tensor a = RandomTensor(m, k, rng);
  const Tensor b = RandomTensor(k, n, rng);
  const Tensor c_init = RandomTensor(m, n, rng);
  struct Input {
    const char* name;
    std::size_t at;  // flat index into A, or m·k for none
    float value;
  };
  const std::size_t last = m * k - 1;
  const Input inputs[] = {
      {"zero-free", m * k, 0.0f},
      {"+0 first", 0, 0.0f},
      {"-0 first", 0, -0.0f},
      {"+0 middle", last / 2, 0.0f},
      {"-0 middle", last / 2, -0.0f},
      {"+0 last", last, 0.0f},
      {"-0 last", last, -0.0f},
      {"subnormal middle", last / 2, std::numeric_limits<float>::denorm_min()},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    Tensor a_in = a;
    Tensor b_in = b;
    if (in.at < m * k) {
      a_in.Flat()[in.at] = in.value;
      b_in.At(in.at % k, 0) = std::numeric_limits<float>::infinity();
    }
    for (const float alpha : {1.0f, 0.25f, 0.1f}) {
      for (const float beta : {0.0f, 0.5f, 1.0f}) {
        SCOPED_TRACE(::testing::Message() << "alpha " << alpha << " beta "
                                          << beta);
        ExpectVariantsBitwise(a_in, b_in, c_init, alpha, beta);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, MatMulDense,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 24,
                                                              120),
                                            ::testing::Values(6, 16, 24, 32,
                                                              120),
                                            ::testing::Values(6, 16, 24, 32)));

}  // namespace
}  // namespace rna::tensor
