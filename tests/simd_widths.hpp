#pragma once

// Shared by the bitwise-equivalence suites: the vector dispatches a test
// checks against simd::scalar::, one per matmul width this CPU runs (the
// forced 16-byte kernels, plus kAuto when it selects a wider width), and a
// scoped dispatch override.

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "rna/common/simd.hpp"

namespace rna::testutil {

struct VectorDispatch {
  common::simd::Dispatch dispatch;
  std::size_t bytes;  ///< matmul vector width it runs at
};

inline std::vector<VectorDispatch> VectorDispatches() {
  using common::simd::Dispatch;
  using common::simd::MatMulVectorBytes;
  std::vector<VectorDispatch> out;
  const std::size_t widest = MatMulVectorBytes(Dispatch::kAuto);
  if (widest != MatMulVectorBytes(Dispatch::kVec16)) {
    out.push_back({Dispatch::kAuto, widest});
  }
  out.push_back({Dispatch::kVec16, MatMulVectorBytes(Dispatch::kVec16)});
  return out;
}

/// "32 16" on an AVX2 host, "16" elsewhere.
inline std::string WidthsUnderTest() {
  std::string s;
  for (const auto& v : VectorDispatches()) {
    s += (s.empty() ? "" : " ") + std::to_string(v.bytes);
  }
  return s;
}

/// Prints the widths under test on one greppable line; true when the CPU
/// runs more than one, so the caller can skip visibly when it does not.
inline bool ReportWidthsUnderTest() {
  std::printf("[ simd     ] matmul widths under test (bytes): %s (%s host)\n",
              WidthsUnderTest().c_str(), common::simd::KernelIsa());
  return VectorDispatches().size() > 1;
}

class ScopedDispatch {
 public:
  explicit ScopedDispatch(common::simd::Dispatch d)
      : saved_(common::simd::ActiveDispatch()) {
    common::simd::SetDispatch(d);
  }
  ~ScopedDispatch() { common::simd::SetDispatch(saved_); }
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;

 private:
  common::simd::Dispatch saved_;
};

}  // namespace rna::testutil
