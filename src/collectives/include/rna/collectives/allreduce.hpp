#pragma once

// The allreduce family behind one options struct: every schedule ×
// compression combination runs through `AllreduceFor(ctx, options, data)`.
// This replaces the old grown-by-accretion positional entry points
// (RingAllreduce / RingAllreduceFor / RingPartialAllreduce): call sites
// build a CollectiveOptions once and the same options select the wire
// format and topology everywhere — flat rings, hierarchical groups, fused
// buckets.

#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "rna/collectives/options.hpp"
#include "rna/collectives/ring.hpp"

namespace rna::collectives {

/// One binomial-tree allreduce pass (Schedule::kTree): a reduce-to-root
/// up-sweep (log₂N rounds; at round `mask` every position with that bit
/// set sends its full partial sum to pos − mask) followed by a binomial
/// broadcast down-sweep. 2·⌈log₂N⌉ sequential hops instead of the ring's
/// 2(N−1) — the latency-optimal choice for small buffers or large worlds —
/// at the cost of full-buffer payloads per hop.
///
/// Compression applies once per rank: each rank encodes its reduce send
/// (with error feedback) and the root encodes the broadcast frame, which
/// is then forwarded verbatim down the tree, so all ranks end bitwise
/// identical. Same LaunchHop/CompleteHop driving contract as RingPass;
/// tags stay inside [tag_base, tag_base + TreeTagSpan(world)).
class TreePass {
 public:
  TreePass(const CollectiveContext& ctx, const CollectiveOptions& options,
           std::span<float> data);

  /// Performs every send that precedes the next blocking receive.
  void LaunchHop();

  /// Drives the pass through its next receive (and any sends that follow
  /// it). False when the receive timed out or the fabric shut down.
  bool CompleteHop();

  bool Done() const { return stage_ == Stage::kDone && !failed_; }
  bool Failed() const { return failed_; }

 private:
  enum class Stage { kReduce, kBcastRecv, kBcastSend, kDone };

  std::vector<float> EncodeFrame();
  void SendFrame(std::size_t to_pos, int tag, bool last);
  void BeginBroadcast();

  net::Fabric* fabric_;
  const Group* group_;
  std::span<float> data_;
  int tag_base_;
  common::Seconds hop_timeout_;
  net::wire::Format format_;
  double topk_fraction_;
  std::size_t exact_tail_;
  ErrorFeedback* feedback_;
  std::size_t feedback_offset_;

  std::size_t world_;
  std::size_t pos_ = 0;
  Rank self_ = 0;
  std::size_t top_mask_ = 0;    ///< highest power of two below world
  std::size_t level_ = 0;       ///< mask this position sends up at (0=root)
  Stage stage_ = Stage::kDone;
  std::size_t reduce_mask_ = 1;
  std::size_t bcast_mask_ = 0;
  /// The encoded frame being fanned out to children (root: fresh encode;
  /// inner nodes: the received frame, forwarded verbatim).
  std::optional<std::vector<float>> frame_;
  bool failed_ = false;
};

/// A schedule-polymorphic pass: RingPass for Schedule::kRing/kStragglar,
/// TreePass for Schedule::kTree, behind the LaunchHop/CompleteHop driving
/// interface fusion pipelines against.
class Pass {
 public:
  Pass(const CollectiveContext& ctx, const CollectiveOptions& options,
       std::span<float> data);

  void LaunchHop();
  bool CompleteHop();
  bool Done() const;
  bool Failed() const;

 private:
  std::variant<RingPass, TreePass> impl_;
};

/// In-place sum-allreduce: after the call every member's `data` holds the
/// elementwise sum across the group (for lossy compression: the identical
/// decoded reconstruction of it on every member). All members must pass
/// equal-size buffers and identical options; the pass's tags live in
/// [options.tag_base, options.tag_base + TreeTagSpan(world)).
///
/// Returns false when a hop timed out (a finite options.hop_timeout) or the
/// fabric shut down — i.e. a group member crashed mid-collective — leaving
/// `data` in an undefined partial state; the caller must abort the round,
/// discard the buffer, and purge the tag range. This is what keeps a
/// mid-collective crash from deadlocking every survivor in Recv.
bool AllreduceFor(const CollectiveContext& ctx,
                  const CollectiveOptions& options, std::span<float> data);

/// Throwing wrapper: terminates (RNA_CHECK) if the collective aborted.
/// For call sites with no abort path (tests, benches, setup).
void Allreduce(const CollectiveContext& ctx, const CollectiveOptions& options,
               std::span<float> data);

struct PartialResult {
  /// Number of ranks that contributed a real gradient (Σw).
  std::size_t contributors = 0;
  /// False when the collective aborted (member crash / timeout / shutdown);
  /// the data buffer is zeroed and contributors is 0 in that case.
  bool ok = true;
};

/// Partial allreduce (Algorithm 2): ranks with `contributes == false` send
/// a null gradient (their buffer is zeroed on entry). On exit every
/// member's buffer holds (Σ contributed gradients) / Σw — the weighted
/// average — or all zeros when nobody contributed. The contributor count
/// rides as one bit-exact tail element appended to the payload, so it
/// survives every compression policy. options.exact_tail is overridden
/// accordingly; a finite options.hop_timeout bounds each hop receive, and on
/// timeout the result has ok == false (see AllreduceFor).
PartialResult PartialAllreduceFor(const CollectiveContext& ctx,
                                 const CollectiveOptions& options,
                                 std::span<float> data, bool contributes);

}  // namespace rna::collectives
