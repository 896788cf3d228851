#pragma once

// From-scratch ring collectives over the in-process fabric, built the way
// the paper describes Ring AllReduce (§2.2): N−1 reduce-scatter steps, each
// moving 1/N of the buffer to the left-to-right neighbor, then N−1
// all-gather steps. These primitives are *cooperative*: every member of the
// group must call the same operation with the same options, exactly like an
// MPI collective. The allreduce entry points live in allreduce.hpp; this
// header has the ring pass state machine plus the broadcast/barrier
// primitives.
//
// Data plane (see DESIGN.md "Data plane & memory"): hop payloads are
// acquired from the fabric's BufferPool and recycled by the receiver after
// folding, so a steady-state ring moves buffers instead of allocating them;
// the reduce-scatter accumulate and the W = 1/Σw re-weight run through the
// vectorized kernels in rna/common/simd.hpp (bitwise identical to their
// scalar references). Hops are exposed as a resumable RingPass state
// machine so fusion can pipeline several buckets' rings.

#include <optional>
#include <span>
#include <vector>

#include "rna/collectives/options.hpp"
#include "rna/net/fabric.hpp"

namespace rna::collectives {

/// One ring allreduce pass as a resumable hop state machine: 2(N−1) hops,
/// each a LaunchHop() (send this step's chunk to the right neighbor, never
/// blocks) followed by a CompleteHop() (receive, fold, advance). Driving it
/// to completion hop by hop is AllreduceFor with Schedule::kRing; launching
/// the first hop of pass k+1 before completing pass k is what lets
/// FusedAllreduceFor pipeline buckets (each pass owns a disjoint tag range,
/// see RingTagSpan in schedule.hpp).
///
/// Options consumed: compression (chunks are encoded through rna/net/wire
/// on every send — Compression::kNone keeps the historical dense payloads
/// bit for bit), topk_fraction, exact_tail, feedback, hop_timeout,
/// tag_base, and — when schedule == Schedule::kStragglar — `straggler`:
/// that member is moved to the ring's tail *position* (chunk ownership and
/// neighbors permute with it; tags do not), so its slow hops overlap the
/// most other work instead of stalling a fixed pair of neighbors.
///
/// The caller's `data` span, group, and feedback must outlive the pass. A
/// timeout or fabric shutdown marks the pass Failed(); the data buffer is
/// then in an undefined partial state and the pass's tag range should be
/// purged before the tags are reused.
class RingPass {
 public:
  RingPass(const CollectiveContext& ctx, const CollectiveOptions& options,
           std::span<float> data);

  /// Sends the current hop's chunk if it has not been sent yet. No-op when
  /// the pass is Done(), Failed(), or the hop is already in flight.
  void LaunchHop();

  /// Receives and folds the current hop (launching it first if needed).
  /// Returns false when the hop timed out or the fabric shut down — the
  /// pass is Failed() from then on. Returns true (without work) when Done().
  bool CompleteHop();

  bool Done() const { return step_ >= total_steps_; }
  bool Failed() const { return failed_; }

 private:
  std::size_t OffsetOf(std::size_t c) const;
  std::span<float> Chunk(std::size_t c) const;
  std::size_t TailInChunk(std::size_t c) const;
  int TagOf(std::size_t step) const;
  std::size_t PosToIndex(std::size_t pos) const;
  std::vector<float> EncodeChunk(std::size_t c);

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
  std::size_t straggler_;  ///< group index at the tail, or kNoStraggler

  std::size_t world_;
  std::size_t pos_ = 0;  ///< my position in the (possibly permuted) ring
  Rank self_ = 0;
  Rank right_ = 0;
  std::size_t chunk_base_ = 0;
  std::size_t chunk_extra_ = 0;
  std::size_t total_steps_ = 0;
  std::size_t step_ = 0;
  bool sent_ = false;
  bool failed_ = false;
  /// All-gather frames are forwarded verbatim (never re-encoded, so lossy
  /// compression is applied exactly once per chunk); this stashes the frame
  /// received last hop until the next LaunchHop sends it on.
  std::optional<std::vector<float>> forward_;
};

/// Star broadcast from `root_index` to all other members.
void Broadcast(net::Fabric& fabric, const Group& group, std::size_t my_index,
               std::size_t root_index, std::span<float> data, int tag_base);

/// Timed broadcast receive (the root never blocks): false when the root's
/// message did not arrive within `timeout` (common::kNoDeadline waits
/// until it arrives or the fabric shuts down).
bool BroadcastFor(net::Fabric& fabric, const Group& group,
                  std::size_t my_index, std::size_t root_index,
                  std::span<float> data, int tag_base,
                  common::Seconds timeout);

/// Full barrier over the group (gather-to-first + release). Blocks until
/// every member arrives or the fabric shuts down.
void Barrier(net::Fabric& fabric, const Group& group, std::size_t my_index,
             int tag_base);

/// Timed barrier: `timeout` bounds the *whole* barrier (the leader's
/// gather and each follower's release wait share one deadline);
/// common::kNoDeadline waits until every member arrives. Returns false
/// when the deadline passed or the fabric shut down — some members may
/// then be left waiting on tag_base/tag_base+1 traffic that never comes, so
/// on a fault-exposed path every member must pass a finite timeout.
bool BarrierFor(net::Fabric& fabric, const Group& group, std::size_t my_index,
                int tag_base, common::Seconds timeout);

}  // namespace rna::collectives
