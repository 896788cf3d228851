#pragma once

// Range-sharded parameter server client: the model's flat parameter vector
// is split into `shards` contiguous ranges, each owned by an independent
// ParameterServer on its own fabric endpoint (first_server + s). A call
// stripes the per-shard requests first and then collects the replies in
// whatever order the shards answer — shard s's reply is recognized by its
// source rank — so a push/pull costs one mailbox round-trip of the largest
// shard rather than `shards` sequential ones.
//
// shards == 1 delegates every call to a plain PsClient, byte-identical on
// the wire to the unsharded protocol.

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "rna/net/fabric.hpp"
#include "rna/ps/server.hpp"

namespace rna::ps {

/// Contiguous shard boundaries: shard `s` of `shards` owns
/// [ShardFirst, ShardLast) of a `dim`-float model; the first dim % shards
/// shards are one element larger.
inline std::size_t ShardFirst(std::size_t dim, std::size_t shards,
                              std::size_t s) {
  const std::size_t base = dim / shards;
  const std::size_t extra = dim % shards;
  return s * base + (s < extra ? s : extra);
}

inline std::size_t ShardLast(std::size_t dim, std::size_t shards,
                             std::size_t s) {
  return ShardFirst(dim, shards, s + 1);
}

class ShardedPsClient {
 public:
  /// Shard s of `shards` is served by fabric endpoint `first_server + s`;
  /// the full model is `dim` floats. `shards` is clamped to dim by the
  /// caller (a shard must own at least one element when dim >= shards).
  ShardedPsClient(net::Fabric& fabric, Rank self, Rank first_server,
                  std::size_t shards, std::size_t dim);

  /// Same semantics as PsClient::ConfigureRetry, applied per call: a retry
  /// attempt re-sends only the shards still missing a reply. At-least-once
  /// caveats (kAverage absorbs duplicates, kAddDelta does not) carry over.
  void ConfigureRetry(std::size_t budget, double first_timeout_s);

  std::size_t Shards() const { return shards_; }
  std::size_t Dim() const { return dim_; }

  void Push(std::span<const float> values, ApplyMode mode);
  std::vector<float> Pull();
  std::optional<std::vector<float>> TryPull();
  std::vector<float> PushPull(std::span<const float> values, ApplyMode mode);
  std::optional<std::vector<float>> TryPushPull(std::span<const float> values,
                                                ApplyMode mode);

 private:
  std::optional<std::vector<float>> TryCall(std::span<const float> values,
                                            ApplyMode mode, bool want_reply);

  net::Fabric* fabric_;
  Rank self_;
  Rank first_server_;
  std::size_t shards_;
  std::size_t dim_;
  PsClient single_;  ///< the shards == 1 fast path
  std::size_t retry_budget_ = 1;
  double retry_timeout_s_ = common::kNoDeadline;
};

}  // namespace rna::ps
