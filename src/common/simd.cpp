#include "rna/common/simd.hpp"

#include <algorithm>
#include <cstdint>
#include <type_traits>

// The 32-byte instantiation needs an x86-64 compiler that can target AVX2
// per function and knows the generic two-vector shuffle.
#if RNA_SIMD_VECTOR_EXT && defined(__x86_64__) && \
    __has_builtin(__builtin_shufflevector)
#define RNA_SIMD_AVX2 1
#else
#define RNA_SIMD_AVX2 0
#endif

namespace rna::common::simd {

namespace {

std::atomic<Dispatch> g_dispatch{Dispatch::kAuto};

// Shared by every dispatch path so the beta handling is bitwise identical.
inline void ApplyBeta(float* c, std::size_t elems, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + elems, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < elems; ++i) c[i] *= beta;
  }
}

// Fixed pairwise reduction of the NT kernel's 8 partial sums. The scalar
// reference calls it; the tiled kernels compute the same tree in vectors.
inline float ReduceLanes(const float* lanes) {
  return ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
         ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
}

bool CpuHasAvx2() {
#if RNA_SIMD_AVX2
  // __builtin_cpu_init makes the answer valid even during static init.
  static const bool has_avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has_avx2;
#else
  return false;
#endif
}

#if RNA_SIMD_VECTOR_EXT

using detail::V4f;
using V8f = float __attribute__((vector_size(32)));

// The kernel templates below are force-inlined into one entry point per
// width, so the 32-byte instantiation is compiled under its entry's AVX2
// target. No template takes or returns a vector by value: a 32-byte vector
// crossing a call boundary without AVX would change the calling convention.
#define RNA_SIMD_INLINE inline __attribute__((always_inline))

template <typename V>
constexpr std::size_t kLanesOf = sizeof(V) / sizeof(float);

// Names a vector type without holding one, so the entry points call the
// kernels with deduced (plain-call) syntax that tools/analyze follows.
template <typename V>
struct Width {};

template <typename V>
RNA_SIMD_INLINE void Load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <typename V>
RNA_SIMD_INLINE void Store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// Columns per register tile. A tile holds 8 accumulator vectors: 2 rows ×
// 4 vectors at 16 bytes (plus 4 B vectors and 2 broadcasts, 14 of SSE2's
// 16 XMM registers), 4 rows × 2 vectors at 32 bytes (plus 2 B vectors and
// 1 broadcast, 11 of AVX2's 16 YMM registers).
constexpr std::size_t kTileCols = 16;
template <typename V>
constexpr std::size_t kTileRows = 8 * kLanesOf<V> / kTileCols;

// x == ±0 as one integer test: `x == 0.0f` compiles to two branches (the
// unordered one for NaN), and on ReLU-sparse A the skip mispredicts often.
RNA_SIMD_INLINE bool IsZero(float x) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return (bits << 1) == 0;
}

// alpha·x, or x itself in the kUnit mode (see StridedTile).
template <bool kUnit>
RNA_SIMD_INLINE float ScaledA(float alpha, float x) {
  if constexpr (kUnit) {
    return x;
  } else {
    return alpha * x;
  }
}

// C(R × 16) += alpha · A(R × k) · B(k × 16), where A(r, kk) is
// a[r*si + kk*sk] (NN: si = k, sk = 1; TN: si = 1, sk = m). The C tile stays
// in registers for the whole k loop; each C element still receives one
// `+= av * b` per k in ascending order, and a row whose av is zero skips
// that k while the other rows of the tile add — the scalar reference's
// exact operation sequence. Two modes drop work that cannot change a bit:
// kDense drops the skip, because the caller has proved that no av is ±0;
// kUnit drops the multiply, because alpha is 1 and 1·a is a (a signalling
// NaN turns quiet one multiply later instead).
template <typename V, std::size_t R, bool kDense, bool kUnit>
RNA_SIMD_INLINE void StridedTile(const float* a, std::size_t si,
                                 std::size_t sk, const float* b, float* c,
                                 std::size_t k, std::size_t n, float alpha) {
  constexpr std::size_t kL = kLanesOf<V>;
  constexpr std::size_t kVecs = kTileCols / kL;
  V acc[R][kVecs];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVecs; ++v) {
      Load(acc[r][v], c + r * n + v * kL);
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n;
    V bv[kVecs];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVecs; ++v) Load(bv[v], brow + v * kL);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      const float av = ScaledA<kUnit>(alpha, a[r * si + kk * sk]);
      if constexpr (!kDense) {
        if (IsZero(av)) continue;
      }
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += bv[v] * av;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVecs; ++v) {
      Store(c + r * n + v * kL, acc[r][v]);
    }
  }
}

// The NN and TN kernel: 16-column strips of full-height tiles (then 2- and
// 1-row tiles for the last m % rows), then the last n % 16 columns row by
// row, a full vector, 4 wide and one at a time. The remainder makes one
// skip decision per (i, kk) for all its columns, as the reference does:
// with ReLU-sparse A that branch is unpredictable, and taking it once per
// column group made n = 6 layers 2.7× slower. The modes: see StridedTile.
template <typename V, bool kDense, bool kUnit>
RNA_SIMD_INLINE void TiledMatMul(Width<V>, std::bool_constant<kDense>,
                                 std::bool_constant<kUnit>, const float* a,
                                 std::size_t si, std::size_t sk,
                                 const float* b, float* c,
                                 std::size_t m, std::size_t k, std::size_t n,
                                 float alpha, float beta) {
  constexpr std::size_t kL = kLanesOf<V>;
  constexpr std::size_t kRows = kTileRows<V>;
  ApplyBeta(c, m * n, beta);
  const std::size_t tiled = n - n % kTileCols;
  for (std::size_t j = 0; j < tiled; j += kTileCols) {
    std::size_t i = 0;
    for (; i + kRows <= m; i += kRows) {
      StridedTile<V, kRows, kDense, kUnit>(a + i * si, si, sk, b + j,
                                           c + i * n + j, k, n, alpha);
    }
    if constexpr (kRows > 2) {
      if (i + 2 <= m) {
        StridedTile<V, 2, kDense, kUnit>(a + i * si, si, sk, b + j,
                                         c + i * n + j, k, n, alpha);
        i += 2;
      }
    }
    if (i < m) {
      StridedTile<V, 1, kDense, kUnit>(a + i * si, si, sk, b + j,
                                       c + i * n + j, k, n, alpha);
    }
  }
  if (tiled == n) return;
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = ScaledA<kUnit>(alpha, a[i * si + kk * sk]);
      if constexpr (!kDense) {
        if (IsZero(av)) continue;
      }
      const float* brow = b + kk * n;
      std::size_t j = tiled;
      for (; j + kL <= n; j += kL) {
        V cv, bv;
        Load(cv, crow + j);
        Load(bv, brow + j);
        Store(crow + j, cv + bv * av);
      }
      if constexpr (kL > 4) {
        for (; j + 4 <= n; j += 4) {
          V4f cv, bv;
          Load(cv, crow + j);
          Load(bv, brow + j);
          Store(crow + j, cv + bv * av);
        }
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// True when no alpha·a[i], i < count, is ±0, so the NN/TN skip can never
// fire. A dense A (attention activations, raw inputs) then runs the tiles
// without it: GCC lays the skip out as a taken branch per row and k, and
// the 24×32×16 NN took 0.78-0.84 µs with it, 0.63-0.65 µs without, and
// 0.50-0.54 µs without the alpha multiply too (AVX2, GCC 12 -O3, one core
// of a 4-vCPU Xeon VM). The scan forms each product exactly as the kernel
// does, and a ReLU-sparse A leaves it in its first 8 vectors.
template <typename V, bool kUnit>
RNA_SIMD_INLINE bool NoZeroProducts(Width<V>, std::bool_constant<kUnit>,
                                    const float* a, std::size_t count,
                                    float alpha) {
  constexpr std::size_t kL = kLanesOf<V>;
  using Mask = decltype(V{} == V{});
  std::size_t i = 0;
  for (; i + 8 * kL <= count; i += 8 * kL) {
    Mask zero{};
#pragma GCC unroll 8
    for (std::size_t v = 0; v < 8; ++v) {
      V x;
      Load(x, a + i + v * kL);
      if constexpr (kUnit) {
        zero |= x == 0.0f;
      } else {
        zero |= x * alpha == 0.0f;
      }
    }
    std::uint64_t bits[sizeof(Mask) / 8];
    std::memcpy(bits, &zero, sizeof(Mask));
    std::uint64_t any = 0;
#pragma GCC unroll 4
    for (std::uint64_t word : bits) any |= word;
    if (any != 0) return false;
  }
  for (; i < count; ++i) {
    if (ScaledA<kUnit>(alpha, a[i]) == 0.0f) return false;
  }
  return true;
}

// NN and TN behind one scan. A is contiguous either way: m×k for NN, k×m
// for TN.
template <typename V>
RNA_SIMD_INLINE void StridedMatMul(Width<V> w, const float* a, std::size_t si,
                                   std::size_t sk, const float* b, float* c,
                                   std::size_t m, std::size_t k,
                                   std::size_t n, float alpha, float beta) {
  const auto run = [&](auto unit) {
    if (NoZeroProducts(w, unit, a, m * k, alpha)) {
      TiledMatMul(w, std::true_type{}, unit, a, si, sk, b, c, m, k, n, alpha,
                  beta);
    } else {
      TiledMatMul(w, std::false_type{}, unit, a, si, sk, b, c, m, k, n, alpha,
                  beta);
    }
  };
  if (alpha == 1.0f) {
    run(std::true_type{});
  } else {
    run(std::false_type{});
  }
}

#if RNA_SIMD_AVX2
// out = [x0+x1, x2+x3, y0+y1, y2+y3 | x4+x5, x6+x7, y4+y5, y6+y7]: pairwise
// adjacent sums within each 4-lane half, one vector add.
RNA_SIMD_INLINE void PairAdd(V8f& out, const V8f& x, const V8f& y) {
  out = __builtin_shufflevector(x, y, 0, 2, 8, 10, 4, 6, 12, 14) +
        __builtin_shufflevector(x, y, 1, 3, 9, 11, 5, 7, 13, 15);
}
#endif

// C(i, j..j+J) += alpha · ⟨A row i, B row j+jj⟩ for J ∈ {1, 4, 8}
// consecutive B rows, so one A load serves J dot products. Each dot product
// keeps the reference's 8 lanes: two 4-wide accumulators (lanes 0-3, 4-7)
// at 16 bytes, one 8-wide at 32 bytes. Summing the low and high 4 lanes
// gives ReduceLanes' inner pairs s; (s0 + s1) + (s2 + s3) finishes its
// tree. J = 4 runs that finish on transposed sums, four columns per vector
// add; J = 8 (32 bytes only) runs the whole tree eight columns per add.
template <typename V, std::size_t J>
RNA_SIMD_INLINE void DotTile(const float* arow, const float* b, float* crow,
                             std::size_t k, float alpha) {
  constexpr std::size_t kL = kLanesOf<V>;
  constexpr std::size_t kParts = 8 / kL;
  static_assert(J != 8 || kL == 8, "the 8-column tile is 32-byte only");
  V acc[J][kParts];
#pragma GCC unroll 8
  for (std::size_t jj = 0; jj < J; ++jj) {
#pragma GCC unroll 2
    for (std::size_t p = 0; p < kParts; ++p) acc[jj][p] = V{};
  }
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    V av[kParts];
#pragma GCC unroll 2
    for (std::size_t p = 0; p < kParts; ++p) Load(av[p], arow + kk + p * kL);
#pragma GCC unroll 8
    for (std::size_t jj = 0; jj < J; ++jj) {
#pragma GCC unroll 2
      for (std::size_t p = 0; p < kParts; ++p) {
        V bv;
        Load(bv, b + jj * k + kk + p * kL);
        acc[jj][p] += av[p] * bv;
      }
    }
  }
  if constexpr (J == 8) {
#if RNA_SIMD_AVX2
    // Level 1, lo+hi halves: h[p] holds the inner pairs s of columns 2p
    // (low half) and 2p+1 (high half).
    V8f h[4];
#pragma GCC unroll 4
    for (std::size_t p = 0; p < 4; ++p) {
      const V8f x = acc[2 * p][0], y = acc[2 * p + 1][0];
      h[p] = __builtin_shufflevector(x, y, 0, 1, 2, 3, 8, 9, 10, 11) +
             __builtin_shufflevector(x, y, 4, 5, 6, 7, 12, 13, 14, 15);
    }
    // Levels 2 and 3, pairwise-adjacent sums. They leave the columns in
    // the order 0 2 4 6 1 3 5 7; one permute restores it.
    V8f g0, g1, q;
    PairAdd(g0, h[0], h[1]);
    PairAdd(g1, h[2], h[3]);
    PairAdd(q, g0, g1);
    V8f sum = __builtin_shufflevector(q, q, 0, 4, 1, 5, 2, 6, 3, 7);
    for (std::size_t t = kk; t < k; ++t) {
      sum += V8f{b[t],         b[k + t],     b[2 * k + t], b[3 * k + t],
                 b[4 * k + t], b[5 * k + t], b[6 * k + t], b[7 * k + t]} *
             arow[t];
    }
    V8f cv;
    Load(cv, crow);
    Store(crow, cv + sum * alpha);
#endif
  } else {
    V4f s[J];
#pragma GCC unroll 4
    for (std::size_t jj = 0; jj < J; ++jj) {
      if constexpr (kParts == 2) {
        s[jj] = acc[jj][0] + acc[jj][1];
      } else {
        V4f lo, hi;
        std::memcpy(&lo, &acc[jj][0], sizeof(V4f));
        std::memcpy(&hi, reinterpret_cast<const char*>(&acc[jj][0]) +
                             sizeof(V4f),
                    sizeof(V4f));
        s[jj] = lo + hi;
      }
    }
    if constexpr (J == 4) {
      V4f sum = (V4f{s[0][0], s[1][0], s[2][0], s[3][0]} +
                 V4f{s[0][1], s[1][1], s[2][1], s[3][1]}) +
                (V4f{s[0][2], s[1][2], s[2][2], s[3][2]} +
                 V4f{s[0][3], s[1][3], s[2][3], s[3][3]});
      for (std::size_t t = kk; t < k; ++t) {
        sum += V4f{b[t], b[k + t], b[2 * k + t], b[3 * k + t]} * arow[t];
      }
      V4f cv;
      Load(cv, crow);
      Store(crow, cv + sum * alpha);
    } else {
      float sum = (s[0][0] + s[0][1]) + (s[0][2] + s[0][3]);
      for (std::size_t t = kk; t < k; ++t) sum += arow[t] * b[t];
      crow[0] += alpha * sum;
    }
  }
}

// NT panels: when several A rows share B, B's columns j..j+kL are first
// copied into a k × kL panel (panel[kk*kL + w] = B(j+w, kk)), so one vector
// holds the same k index of kL dot products. acc[l] then carries lane l of
// ReduceLanes for all kL columns, the tree runs as 7 vertical adds, and the
// k % 8 tail and `c += alpha·s` follow as in the reference. Per k this is
// one broadcast, one load, one multiply and one add per kL outputs, with no
// shuffles; the copy costs k·kL moves per m·k·kL multiply-adds.
constexpr std::size_t kPanelMinRows = 4;
constexpr std::size_t kPanelMaxK = 32;

template <typename V>
RNA_SIMD_INLINE void PanelTileNT(const float* a, const float* panel, float* c,
                                 std::size_t m, std::size_t k, std::size_t n,
                                 float alpha) {
  constexpr std::size_t kL = kLanesOf<V>;
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    V acc[8];
#pragma GCC unroll 8
    for (std::size_t l = 0; l < 8; ++l) acc[l] = V{};
    std::size_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
#pragma GCC unroll 8
      for (std::size_t l = 0; l < 8; ++l) {
        V bv;
        Load(bv, panel + (kk + l) * kL);
        acc[l] += bv * arow[kk + l];
      }
    }
    V sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) +
            ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (; kk < k; ++kk) {
      V bv;
      Load(bv, panel + kk * kL);
      sum += bv * arow[kk];
    }
    V cv;
    Load(cv, c + i * n);
    Store(c + i * n, cv + sum * alpha);
  }
}

// The NT kernel: kL-column panels over all rows when m ≥ kPanelMinRows and
// the panel fits (k ≤ kPanelMaxK); the other columns per A row as
// 8-column tiles (32 bytes only), then 4-column tiles, then single columns.
template <typename V>
RNA_SIMD_INLINE void TiledMatMulNT(Width<V>, const float* a, const float* b,
                                   float* c, std::size_t m, std::size_t k,
                                   std::size_t n, float alpha, float beta) {
  constexpr std::size_t kL = kLanesOf<V>;
  ApplyBeta(c, m * n, beta);
  std::size_t paneled = 0;
  if (m >= kPanelMinRows && k <= kPanelMaxK) {
    float panel[kPanelMaxK * kL];
    for (; paneled + kL <= n; paneled += kL) {
      for (std::size_t kk = 0; kk < k; ++kk) {
#pragma GCC unroll 8
        for (std::size_t w = 0; w < kL; ++w) {
          panel[kk * kL + w] = b[(paneled + w) * k + kk];
        }
      }
      PanelTileNT<V>(a, panel, c + paneled, m, k, n, alpha);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j = paneled;
    if constexpr (kL == 8) {
      for (; j + 8 <= n; j += 8) {
        DotTile<V, 8>(arow, b + j * k, crow + j, k, alpha);
      }
    }
    for (; j + 4 <= n; j += 4) {
      DotTile<V, 4>(arow, b + j * k, crow + j, k, alpha);
    }
    for (; j < n; ++j) DotTile<V, 1>(arow, b + j * k, crow + j, k, alpha);
  }
}

// One entry point per width and family. The 32-byte ones enable AVX2 but
// not FMA: with FMA, `acc += b * av` may contract into one rounding and
// break bitwise agreement with the reference (-ffp-contract=off on
// rna_common forbids it as well).
void StridedMatMul16(const float* a, std::size_t si, std::size_t sk,
                     const float* b, float* c, std::size_t m, std::size_t k,
                     std::size_t n, float alpha, float beta) {
  StridedMatMul(Width<V4f>{}, a, si, sk, b, c, m, k, n, alpha, beta);
}

void DotMatMul16(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, float alpha, float beta) {
  TiledMatMulNT(Width<V4f>{}, a, b, c, m, k, n, alpha, beta);
}

#if RNA_SIMD_AVX2
__attribute__((target("avx2"))) void StridedMatMul32(
    const float* a, std::size_t si, std::size_t sk, const float* b, float* c,
    std::size_t m, std::size_t k, std::size_t n, float alpha, float beta) {
  StridedMatMul(Width<V8f>{}, a, si, sk, b, c, m, k, n, alpha, beta);
}

__attribute__((target("avx2"))) void DotMatMul32(
    const float* a, const float* b, float* c, std::size_t m, std::size_t k,
    std::size_t n, float alpha, float beta) {
  TiledMatMulNT(Width<V8f>{}, a, b, c, m, k, n, alpha, beta);
}
#endif  // RNA_SIMD_AVX2

#endif  // RNA_SIMD_VECTOR_EXT

}  // namespace

void SetDispatch(Dispatch d) {
  g_dispatch.store(d, std::memory_order_relaxed);
}

Dispatch ActiveDispatch() {
  return g_dispatch.load(std::memory_order_relaxed);
}

std::size_t MatMulVectorBytes(Dispatch d) {
  if (d == Dispatch::kScalar || !RNA_SIMD_VECTOR_EXT) return 0;
  return d == Dispatch::kAuto && CpuHasAvx2() ? 32 : 16;
}

const char* KernelIsa() {
  switch (MatMulVectorBytes(Dispatch::kAuto)) {
    case 32:
      return "avx2";
    case 16:
#if defined(__x86_64__)
      return "sse2";
#elif defined(__aarch64__)
      return "neon";
#else
      return "vec16";
#endif
    default:
      return "scalar";
  }
}

namespace scalar {

void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  ApplyBeta(c, m * n, beta);
  // i-k-j with an ascending k accumulation per C element — the order the
  // tiled kernels reproduce.
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
  // by a fixed pairwise tree — simulating the tiled kernels' lanes so every
  // dispatch rounds identically.
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

// The public kernels pick a width with a plain branch (no function
// pointers), so the call graph tools/analyze walks stays explicit.

void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  switch (MatMulVectorBytes(ActiveDispatch())) {
#if RNA_SIMD_AVX2
    case 32:
      return StridedMatMul32(a, k, 1, b, c, m, k, n, alpha, beta);
#endif
#if RNA_SIMD_VECTOR_EXT
    case 16:
      return StridedMatMul16(a, k, 1, b, c, m, k, n, alpha, beta);
#endif
    default:
      return scalar::MatMulNN(a, b, c, m, k, n, alpha, beta);
  }
}

void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  switch (MatMulVectorBytes(ActiveDispatch())) {
#if RNA_SIMD_AVX2
    case 32:
      return DotMatMul32(a, b, c, m, k, n, alpha, beta);
#endif
#if RNA_SIMD_VECTOR_EXT
    case 16:
      return DotMatMul16(a, b, c, m, k, n, alpha, beta);
#endif
    default:
      return scalar::MatMulNT(a, b, c, m, k, n, alpha, beta);
  }
}

void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta) {
  switch (MatMulVectorBytes(ActiveDispatch())) {
#if RNA_SIMD_AVX2
    case 32:
      return StridedMatMul32(a, 1, m, b, c, m, k, n, alpha, beta);
#endif
#if RNA_SIMD_VECTOR_EXT
    case 16:
      return StridedMatMul16(a, 1, m, b, c, m, k, n, alpha, beta);
#endif
    default:
      return scalar::MatMulTN(a, b, c, m, k, n, alpha, beta);
  }
}

}  // namespace rna::common::simd
