#pragma once

// Vectorized kernels shared by the collective/fabric data plane and the
// compute plane. Every kernel has a scalar reference (simd::scalar::) and
// vector paths, and they are bitwise identical: a vector path performs the
// same floating-point operations in the same order per output element (no
// FMA, no reassociation). `SetDispatch` is the runtime hook the equivalence
// tests and the kernel microbenchmarks use: kScalar forces the reference,
// kVec16 the 16-byte kernels, kAuto (the default) the widest the CPU runs.
//
// Vector types. GCC/Clang generic vectors with memcpy-based unaligned
// load/store, so no intrinsics header is needed: 16 bytes (4 × f32: SSE2
// on the baseline x86-64 target, NEON on arm64) everywhere, plus 32 bytes
// (8 × f32) for the matmul kernels on x86-64. The 32-byte instantiation is
// compiled under __attribute__((target("avx2"))) and chosen once per
// process by __builtin_cpu_supports("avx2"), so the build stays baseline
// x86-64. A 32-byte generic vector compiled without an AVX target is split
// into two SSE halves plus shuffles and ran about 5× slower than the
// scalar loop; with the AVX2 target it is native YMM code. The target is
// avx2 alone, never fma: with FMA enabled the compiler may contract
// `acc += b * av` into one rounding. rna_common also builds with
// -ffp-contract=off, which forbids that contraction on every target (GCC
// contracts by default for C++, e.g. into NEON fmla on arm64).
//
// Elementwise family (AddInto/ScaleInto/…): the ring reduce-scatter's chunk
// accumulate, the W = 1/Σw re-weighting of the partial allreduce, the
// staleness-weighted gradient combine and the PS folds. 16 bytes under
// both vector dispatches. No cross-lane reduction, so bitwise equality is
// automatic; tests/test_dataplane.cpp cross-checks each kernel and the
// collectives end to end. The vector loop is 1.6-3.9× the plain loop at
// -O2 (RelWithDebInfo) and the same machine code as GCC's auto-vectorized
// loop at -O3.
//
// Matmul family (MatMulNN/NT/TN, simd.cpp): one register-tiled source
// templated on the vector type, instantiated at 16 and 32 bytes.
//   * NN and TN are one kernel: they differ only in how A is addressed
//     (A(i, kk) = a[i*k + kk] for NN, a[kk*m + i] for TN). It keeps a C
//     tile of 16 columns and 8 accumulator vectors in registers for the
//     whole k loop: 2 rows × 4 vectors at 16 bytes (plus 4 B vectors and 2
//     broadcasts, 14 of SSE2's 16 registers), 4 rows × 2 vectors at 32
//     bytes (plus 2 B vectors and 1 broadcast). Leftover rows run as 2- and
//     1-row tiles. The last n % 16 columns run row by row, a full vector
//     (8 wide at 32 bytes), 4 wide and then one at a time, with one skip
//     decision per (i, k) for all of them, as in the reference: with
//     ReLU-sparse A that branch is unpredictable, and repeating it per
//     4-column group made narrow layers (n = 6) 2.7× slower. Each C
//     element receives `c += (alpha·a)·b` over ascending k, one add per k,
//     exactly like the reference. alpha·a == 0 (either sign) skips that k,
//     decided per row: in a tile the zero row skips while its neighbours
//     add. The skip is visible bitwise (0·Inf = NaN and -0 + 0·b = +0), so
//     tests/test_tensor.cpp pins it.
//   * NT streams several B rows per A row. Each dot product accumulates in
//     8 lanes (two 4-wide accumulators at 16 bytes, one 8-wide at 32)
//     folded by the fixed pairwise tree ReduceLanes, which the reference
//     simulates. The 4-column tile runs the tree's last two levels on
//     transposed sums; the 8-column tile (32 bytes) runs the whole tree on
//     transposed sums as full-vector adds: lo+hi halves, two
//     pairwise-adjacent levels, then one permute back to column order.
//
// Measured GFLOP/s, median of 3 `bench_micro_nn --json-out` runs, GCC 12,
// 4-vCPU Intel Xeon VM with AVX2, at -O2 (RelWithDebInfo) and -O3
// (Release): the 32-byte kernels (kAuto), the 16-byte kernels (kVec16) and
// the scalar reference:
//
//   variant  m × k × n    | -O2: 32B / 16B / scalar | -O3: 32B / 16B / scalar
//   NN        24× 32× 16  | 19.4 / 12.6 /  2.3  | 18.9 / 13.0 /  5.3
//   NN       120×120× 16  | 21.3 / 13.0 /  2.4  | 20.8 / 13.4 /  5.5
//   TN       120×120× 16  | 20.1 / 13.6 /  1.5  | 20.3 / 12.6 /  5.0
//   TN        32×120× 16  | 20.7 / 12.7 /  1.5  | 20.8 / 13.0 /  5.0
//   NT        24× 16× 24  | 16.3 /  8.0 /  5.1  | 15.3 /  8.0 /  5.0
//   NT       120× 16×120  | 17.5 /  8.4 /  5.1  | 16.7 /  8.2 /  4.7
//   NN       128×128×128  | 20.2 / 12.9 /  2.6  | 19.6 / 13.0 /  8.9
//   NT       128×128×128  | 28.1 / 15.9 /  9.2  | 28.3 / 15.7 /  9.8
//   TN       128×128×128  | 20.0 / 12.1 /  1.6  | 19.5 / 12.1 /  9.1

#include <atomic>
#include <cstddef>
#include <cstring>
#include <span>

namespace rna::common::simd {

enum class Dispatch {
  kAuto,    ///< widest vector kernels the CPU supports (default)
  kVec16,   ///< force the 16-byte vector kernels (tests, microbenchmarks)
  kScalar,  ///< force the scalar reference (tests, microbench baselines)
};

/// Process-global dispatch switch; kAuto unless a test/bench overrides it.
void SetDispatch(Dispatch d);
Dispatch ActiveDispatch();

/// Vector width in bytes the matmul kernels run at under `d` on this CPU:
/// 32 (AVX2), 16 (SSE2/NEON) or 0 (the scalar reference).
std::size_t MatMulVectorBytes(Dispatch d);

/// Instruction set of the kAuto matmul kernels on this CPU: "avx2",
/// "sse2", "neon", "vec16" (another 16-byte target) or "scalar".
const char* KernelIsa();

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
  if (ActiveDispatch() != Dispatch::kScalar) {
    detail::AddInto(dst.data(), src.data(), dst.size());
    return;
  }
#endif
  scalar::AddInto(dst, src);
}

/// dst[i] *= s
inline void ScaleInto(std::span<float> dst, float s) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() != Dispatch::kScalar) {
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
  if (ActiveDispatch() != Dispatch::kScalar) {
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
  if (ActiveDispatch() != Dispatch::kScalar) {
    detail::ScaledCopy(dst.data(), src.data(), s, dst.size());
    return;
  }
#endif
  scalar::ScaledCopy(dst, src, s);
}

/// dst[i] = 0.5 * (dst[i] + src[i])
inline void AverageInto(std::span<float> dst, std::span<const float> src) {
#if RNA_SIMD_VECTOR_EXT
  if (ActiveDispatch() != Dispatch::kScalar) {
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
