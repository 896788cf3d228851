#include "rna/common/simd.hpp"

#include <algorithm>

namespace rna::common::simd {

namespace {

std::atomic<Dispatch> g_dispatch{Dispatch::kAuto};

// Shared by both dispatch paths so the beta handling is bitwise identical.
inline void ApplyBeta(float* c, std::size_t elems, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + elems, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < elems; ++i) c[i] *= beta;
  }
}

// Fixed pairwise reduction of the NT kernel's 8 partial sums. The scalar
// reference calls it; the tiled kernel computes the same tree in vectors.
inline float ReduceLanes(const float* lanes) {
  return ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
         ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
}

#if RNA_SIMD_VECTOR_EXT

using detail::kLanes;
using detail::Load;
using detail::Store;
using detail::V4f;

// Columns per register tile: 4 vectors, so a 2-row tile holds 8
// accumulators, 4 B vectors and 2 broadcasts — 14 of SSE2's 16 registers.
constexpr std::size_t kTileVectors = 4;
constexpr std::size_t kTileCols = kTileVectors * kLanes;

// C(R × 16) += alpha · A(R × k) · B(k × 16), where A(r, kk) is
// a[r*si + kk*sk] (NN: si = k, sk = 1; TN: si = 1, sk = m). The C tile stays
// in registers for the whole k loop; each C element still receives one
// `+= av * b` per k in ascending order, and a row whose av is zero skips
// that k while the other row of the tile adds — the scalar reference's
// exact operation sequence.
template <std::size_t R>
inline void StridedTile(const float* a, std::size_t si, std::size_t sk,
                        const float* b, float* c, std::size_t k,
                        std::size_t n, float alpha) {
  V4f acc[R][kTileVectors];
#pragma GCC unroll 2
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      acc[r][v] = Load(c + r * n + v * kLanes);
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n;
    V4f bv[kTileVectors];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      bv[v] = Load(brow + v * kLanes);
    }
#pragma GCC unroll 2
    for (std::size_t r = 0; r < R; ++r) {
      const float av = alpha * a[r * si + kk * sk];
      if (av == 0.0f) continue;
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kTileVectors; ++v) acc[r][v] += bv[v] * av;
    }
  }
#pragma GCC unroll 2
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kTileVectors; ++v) {
      Store(c + r * n + v * kLanes, acc[r][v]);
    }
  }
}

// The NN and TN kernel: 16-column strips of 2-row tiles (plus a 1-row tile
// for odd m), then the last n % 16 columns row by row, 4 wide and then one
// at a time. The remainder makes one skip decision per (i, kk) for all its
// columns, as the reference does: with ReLU-sparse A that branch is
// unpredictable, and taking it once per column group made n = 6 layers
// 2.7× slower.
void TiledMatMul(const float* a, std::size_t si, std::size_t sk,
                 const float* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  const std::size_t tiled = n - n % kTileCols;
  for (std::size_t j = 0; j < tiled; j += kTileCols) {
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2) {
      StridedTile<2>(a + i * si, si, sk, b + j, c + i * n + j, k, n, alpha);
    }
    if (i < m) {
      StridedTile<1>(a + i * si, si, sk, b + j, c + i * n + j, k, n, alpha);
    }
  }
  if (tiled == n) return;
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = alpha * a[i * si + kk * sk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      std::size_t j = tiled;
      for (; j + kLanes <= n; j += kLanes) {
        Store(crow + j, Load(crow + j) + Load(brow + j) * av);
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// C(i, j..j+J) += alpha · ⟨A row i, B row j+jj⟩ for J ∈ {1, 4} consecutive
// B rows, so one A vector load serves J dot products. Each dot product keeps
// the 8-lane contract: lanes 0-3 accumulate in lo, lanes 4-7 in hi, so
// s = lo + hi holds ReduceLanes' inner pairs and (s0 + s1) + (s2 + s3)
// finishes its tree. For J = 4 that finish runs on the transposed sums,
// four columns per vector add.
template <std::size_t J>
inline void DotTile(const float* arow, const float* b, float* crow,
                    std::size_t k, float alpha) {
  V4f lo[J], hi[J];
#pragma GCC unroll 4
  for (std::size_t jj = 0; jj < J; ++jj) lo[jj] = hi[jj] = V4f{};
  std::size_t kk = 0;
  for (; kk + 2 * kLanes <= k; kk += 2 * kLanes) {
    const V4f a0 = Load(arow + kk);
    const V4f a1 = Load(arow + kk + kLanes);
#pragma GCC unroll 4
    for (std::size_t jj = 0; jj < J; ++jj) {
      const float* brow = b + jj * k + kk;
      lo[jj] += a0 * Load(brow);
      hi[jj] += a1 * Load(brow + kLanes);
    }
  }
  if constexpr (J == 4) {
    const V4f s0 = lo[0] + hi[0], s1 = lo[1] + hi[1], s2 = lo[2] + hi[2],
              s3 = lo[3] + hi[3];
    V4f sum = (V4f{s0[0], s1[0], s2[0], s3[0]} +
               V4f{s0[1], s1[1], s2[1], s3[1]}) +
              (V4f{s0[2], s1[2], s2[2], s3[2]} +
               V4f{s0[3], s1[3], s2[3], s3[3]});
    for (std::size_t t = kk; t < k; ++t) {
      sum += V4f{b[t], b[k + t], b[2 * k + t], b[3 * k + t]} * arow[t];
    }
    Store(crow, Load(crow) + sum * alpha);
  } else {
    const V4f s = lo[0] + hi[0];
    float sum = (s[0] + s[1]) + (s[2] + s[3]);
    for (std::size_t t = kk; t < k; ++t) sum += arow[t] * b[t];
    crow[0] += alpha * sum;
  }
}

void TiledMatMulNT(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) DotTile<4>(arow, b + j * k, crow + j, k, alpha);
    for (; j < n; ++j) DotTile<1>(arow, b + j * k, crow + j, k, alpha);
  }
}

#endif  // RNA_SIMD_VECTOR_EXT

}  // namespace

void SetDispatch(Dispatch d) {
  g_dispatch.store(d, std::memory_order_relaxed);
}

Dispatch ActiveDispatch() {
  return g_dispatch.load(std::memory_order_relaxed);
}

namespace scalar {

void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  // i-k-j with an ascending k accumulation per C element — the order the
  // tiled kernel reproduces.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = alpha * arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  // The dot product over k is split into 8 independent partial sums folded
  // by a fixed pairwise tree — simulating the tiled kernel's lanes so both
  // dispatches round identically.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        for (std::size_t l = 0; l < 8; ++l) {
          lanes[l] += arow[kk + l] * brow[kk + l];
        }
      }
      float s = ReduceLanes(lanes);
      for (; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] += alpha * s;
    }
  }
}

void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace scalar

void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    TiledMatMul(a, k, 1, b, c, m, k, n, alpha, beta);
    return;
  }
#endif
  scalar::MatMulNN(a, b, c, m, k, n, alpha, beta);
}

void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    TiledMatMulNT(a, b, c, m, k, n, alpha, beta);
    return;
  }
#endif
  scalar::MatMulNT(a, b, c, m, k, n, alpha, beta);
}

void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    TiledMatMul(a, 1, m, b, c, m, k, n, alpha, beta);
    return;
  }
#endif
  scalar::MatMulTN(a, b, c, m, k, n, alpha, beta);
}

}  // namespace rna::common::simd
