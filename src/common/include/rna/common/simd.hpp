#pragma once

// Vectorized kernels shared by the collective/fabric data plane and the
// compute plane. Every kernel has a scalar reference (simd::scalar::) and a
// vector path, and the two are bitwise identical: the vector path performs
// the same floating-point operations in the same order per output element
// (no FMA, no reassociation). `SetDispatch(Dispatch::kScalar)` forces the
// reference at runtime — the hook the equivalence tests and the kernel
// microbenchmarks use.
//
// Vector type. One native 16-byte GCC/Clang vector (4 × f32: SSE2 on the
// baseline x86-64 target, NEON on arm64) with memcpy-based unaligned
// load/store, so no intrinsics header is needed. GCC lowers a 32-byte
// generic vector badly on a target without AVX: an 8-wide matmul path ran
// about 5× slower than the plain scalar loop at -O3 at the transformer's
// width-16 attention shapes.
//
// Elementwise family (AddInto/ScaleInto/…): the ring reduce-scatter's chunk
// accumulate, the W = 1/Σw re-weighting of the partial allreduce, the
// staleness-weighted gradient combine and the PS folds. No cross-lane
// reduction, so bitwise equality is automatic; tests/test_dataplane.cpp
// cross-checks each kernel and the collectives end to end. The vector loop
// is 1.6-3.9× the plain loop at -O2 (RelWithDebInfo) and the same machine
// code as GCC's auto-vectorized loop at -O3.
//
// Matmul family (MatMulNN/NT/TN, simd.cpp), register-tiled:
//   * NN and TN are one kernel: they differ only in how A is addressed
//     (A(i, kk) = a[i*k + kk] for NN, a[kk*m + i] for TN). It keeps a
//     2-row × 16-column C tile in registers for the whole k loop (8
//     accumulators + 4 B vectors + 2 broadcasts = 14 of SSE2's 16
//     registers); an odd last row runs as a 1-row tile. The last n % 16
//     columns run row by row, 4 wide and then one at a time, with one skip
//     decision per (i, k) for all of them, as in the reference: with
//     ReLU-sparse A that branch is unpredictable, and repeating it per
//     4-column group made narrow layers (n = 6) 2.7× slower. Each C
//     element receives `c += (alpha·a)·b` over ascending k, one add per k,
//     exactly like the reference. alpha·a == 0 (either sign) skips that k,
//     decided per row: in a 2-row tile the zero row skips while its
//     neighbour adds. The skip is visible bitwise (0·Inf = NaN and
//     -0 + 0·b = +0), so tests/test_tensor.cpp pins it.
//   * NT streams four B rows per A row. Each dot product accumulates in 8
//     lanes (two 4-wide accumulators: lanes 0-3 and 4-7) folded by the
//     fixed pairwise tree ReduceLanes; the four-column tile runs the tree's
//     last two levels on transposed sums. The reference simulates the same
//     lanes.
//
// Measured GFLOP/s, tiled kernel (scalar reference in parentheses), median
// of 3 `bench_micro_nn --json-out` runs, GCC 12, 4-vCPU Intel Xeon VM:
//
//   variant  m × k × n      |    -O2       |    -O3
//   NN       24× 32× 16    |  11.8 (1.9)  |  11.7 (4.4)
//   NN      120×120× 16    |  12.7 (2.3)  |  11.9 (4.3)
//   TN      120×120× 16    |  11.7 (2.0)  |  12.3 (3.9)
//   TN       32×120× 16    |  11.9 (2.2)  |  12.2 (3.9)
//   NT       24× 16× 24    |   7.5 (5.1)  |   7.5 (4.5)
//   NT      120× 16×120    |   8.3 (5.4)  |   8.0 (4.6)
//   NN      128×128×128    |  12.2 (2.3)  |  11.7 (5.8)
//   NT      128×128×128    |  15.4 (9.1)  |  15.7 (9.7)
//   TN      128×128×128    |  11.0 (2.2)  |  12.1 (5.9)

#include <atomic>
#include <cstddef>
#include <cstring>
#include <span>

namespace rna::common::simd {

enum class Dispatch {
  kAuto,    ///< vector path (default)
  kScalar,  ///< force the scalar reference (tests, microbench baselines)
};

/// Process-global dispatch switch; kAuto unless a test/bench overrides it.
void SetDispatch(Dispatch d);
Dispatch ActiveDispatch();

namespace scalar {

/// dst[i] += src[i]
inline void AddInto(std::span<float> dst, std::span<const float> src) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
}

/// dst[i] *= s
inline void ScaleInto(std::span<float> dst, float s) {
  for (float& x : dst) x *= s;
}

/// dst[i] += w * src[i]
inline void WeightedAccumulate(std::span<float> dst,
                               std::span<const float> src, float w) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += w * src[i];
}

/// dst[i] = s * src[i]
inline void ScaledCopy(std::span<float> dst, std::span<const float> src,
                       float s) {
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = s * src[i];
}

/// dst[i] = 0.5 * (dst[i] + src[i]) — the PS kAverage fold. Add-then-halve
/// order is part of the contract (multiplying by 0.5 is exact, so this is
/// the correctly-rounded midpoint except at the subnormal edge).
inline void AverageInto(std::span<float> dst, std::span<const float> src) {
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i] = 0.5f * (dst[i] + src[i]);
}

}  // namespace scalar

namespace detail {

#if defined(__GNUC__) || defined(__clang__)
#define RNA_SIMD_VECTOR_EXT 1
using V4f = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

inline V4f Load(const float* p) {
  V4f v;
  std::memcpy(&v, p, sizeof(V4f));
  return v;
}

inline void Store(float* p, V4f v) { std::memcpy(p, &v, sizeof(V4f)); }
#else
#define RNA_SIMD_VECTOR_EXT 0
#endif

#if RNA_SIMD_VECTOR_EXT
inline void AddInto(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(dst + i, Load(dst + i) + Load(src + i));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

inline void ScaleInto(float* dst, float s, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(dst + i, Load(dst + i) * s);
  }
  for (; i < n; ++i) dst[i] *= s;
}

inline void WeightedAccumulate(float* dst, const float* src, float w,
                               std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(dst + i, Load(dst + i) + Load(src + i) * w);
  }
  for (; i < n; ++i) dst[i] += w * src[i];
}

inline void ScaledCopy(float* dst, const float* src, float s, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(dst + i, Load(src + i) * s);
  }
  for (; i < n; ++i) dst[i] = s * src[i];
}

inline void AverageInto(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(dst + i, (Load(dst + i) + Load(src + i)) * 0.5f);
  }
  for (; i < n; ++i) dst[i] = 0.5f * (dst[i] + src[i]);
}
#endif  // RNA_SIMD_VECTOR_EXT

}  // namespace detail

/// dst[i] += src[i]; spans must be equal-sized (size checked by caller).
inline void AddInto(std::span<float> dst, std::span<const float> src) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::AddInto(dst.data(), src.data(), dst.size());
    return;
  }
#endif
  scalar::AddInto(dst, src);
}

/// dst[i] *= s
inline void ScaleInto(std::span<float> dst, float s) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::ScaleInto(dst.data(), s, dst.size());
    return;
  }
#endif
  scalar::ScaleInto(dst, s);
}

/// dst[i] += w * src[i]
inline void WeightedAccumulate(std::span<float> dst,
                               std::span<const float> src, float w) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::WeightedAccumulate(dst.data(), src.data(), w, dst.size());
    return;
  }
#endif
  scalar::WeightedAccumulate(dst, src, w);
}

/// dst[i] = s * src[i]
inline void ScaledCopy(std::span<float> dst, std::span<const float> src,
                       float s) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::ScaledCopy(dst.data(), src.data(), s, dst.size());
    return;
  }
#endif
  scalar::ScaledCopy(dst, src, s);
}

/// dst[i] = 0.5 * (dst[i] + src[i])
inline void AverageInto(std::span<float> dst, std::span<const float> src) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() == Dispatch::kAuto) {
    detail::AverageInto(dst.data(), src.data(), dst.size());
    return;
  }
#endif
  scalar::AverageInto(dst, src);
}

// ---- dense matmul kernels (row-major, dispatching like the above) ----
//
// Shapes are caller-checked; these operate on raw pointers so both the
// tensor ops layer and the LSTM's strided row updates can use them.

/// C(m×n) = alpha · A(m×k) · B(k×n) + beta · C.
void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

/// C(m×n) = alpha · A(m×k) · Bᵀ + beta · C, with B stored n×k.
void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

/// C(m×n) = alpha · Aᵀ · B + beta · C, with A stored k×m and B stored k×n.
void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

namespace scalar {

/// Scalar references with the dispatch-independent accumulation orders
/// documented above; the microbench baselines and equivalence tests call
/// these directly.
void MatMulNN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);
void MatMulNT(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);
void MatMulTN(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, float alpha, float beta);

}  // namespace scalar

}  // namespace rna::common::simd
