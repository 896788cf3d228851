#pragma once

// Tensor Fusion (the Horovod feature the paper enables for its baseline,
// §7.3): deep-learning models expose many per-layer gradient tensors, and
// reducing each one separately pays the per-collective latency α once per
// tensor. Fusion packs consecutive tensors into buckets of bounded size and
// runs one ring allreduce per bucket, amortizing α while keeping peak
// staging memory bounded — the classic throughput/latency/memory knob.
//
// The fused path is *pipelined*: staging is double-buffered and each
// bucket's ring is a RingPass with its own tag range, so bucket k+1 is
// packed and its first hop launched while bucket k's ring is still in
// flight. Staging buffers come from the fabric's BufferPool.

#include <span>
#include <string>
#include <vector>

#include "rna/collectives/allreduce.hpp"

namespace rna::collectives {

struct TensorSpec {
  std::string name;
  std::size_t elements = 0;
};

/// A partition of a tensor list into contiguous fusion buckets.
struct FusionPlan {
  struct Bucket {
    std::size_t first_tensor = 0;  ///< index into the spec list
    std::size_t tensor_count = 0;
    std::size_t elements = 0;      ///< total elements in the bucket
  };
  std::vector<Bucket> buckets;

  std::size_t BucketCount() const { return buckets.size(); }
  std::size_t MaxBucketElements() const;

  /// Greedy contiguous packing: tensors are appended to the current bucket
  /// until adding the next one would exceed `max_bucket_elements`; a tensor
  /// larger than the limit gets a bucket of its own. Preserves order.
  static FusionPlan Build(std::span<const TensorSpec> specs,
                          std::size_t max_bucket_elements);
};

/// Tags consumed per bucket: each bucket's pass uses at most 2·world step
/// tags (RingTagSpan/TreeTagSpan, schedule.hpp); buckets are spaced by this
/// stride so concurrent in-flight buckets cannot collide. A fused call owns
/// [tag_base, tag_base + BucketCount()·stride) — the range to purge after
/// an aborted call.
inline int FusionTagStride(std::size_t world) {
  return static_cast<int>(2 * world + 2);
}

/// Cooperative fused sum-allreduce: every group member calls it with the
/// same specs/plan/options and its local per-tensor buffers. Each bucket is
/// gathered into a staging buffer, allreduced under the options' schedule
/// and compression (bucket i's pass uses options.tag_base +
/// i·FusionTagStride(world)), and scattered back — with
/// Compression::kNone the results are bitwise identical to reducing one
/// concatenated buffer.
void FusedAllreduce(const CollectiveContext& ctx,
                    const CollectiveOptions& options,
                    std::span<const TensorSpec> specs,
                    std::span<float* const> tensors, const FusionPlan& plan);

/// Timed variant: every hop receive of every bucket's pass is bounded by
/// options.hop_timeout (common::kNoDeadline waits until delivery or
/// shutdown), routed through the same pass deadline machinery as
/// AllreduceFor. Returns false when a hop timed out or the fabric shut
/// down; the tensors are then in an unspecified partial state (completed
/// buckets reduced, the failed and later buckets not) and the caller must
/// discard the round and purge the call's tag range before those tags are
/// reused.
bool FusedAllreduceFor(const CollectiveContext& ctx,
                       const CollectiveOptions& options,
                       std::span<const TensorSpec> specs,
                       std::span<float* const> tensors,
                       const FusionPlan& plan);

}  // namespace rna::collectives
