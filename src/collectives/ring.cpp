#include "rna/collectives/ring.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"

namespace rna::collectives {

std::size_t Group::IndexOf(Rank rank) const {
  const auto it = std::find(members.begin(), members.end(), rank);
  RNA_CHECK_MSG(it != members.end(), "rank is not a member of the group");
  return static_cast<std::size_t>(it - members.begin());
}

Group Group::Full(std::size_t world) {
  Group g;
  g.members.resize(world);
  for (std::size_t i = 0; i < world; ++i) g.members[i] = i;
  return g;
}

RingPass::RingPass(const CollectiveContext& ctx,
                   const CollectiveOptions& options, std::span<float> data)
    : fabric_(&ctx.fabric),
      group_(&ctx.group),
      data_(data),
      tag_base_(options.tag_base),
      hop_timeout_(options.hop_timeout),
      format_(ToWireFormat(options.compression)),
      topk_fraction_(options.topk_fraction),
      exact_tail_(options.exact_tail),
      feedback_(options.compression == Compression::kNone ? nullptr
                                                          : options.feedback),
      feedback_offset_(options.feedback_offset),
      straggler_(options.schedule == Schedule::kStragglar ? options.straggler
                                                          : kNoStraggler),
      world_(ctx.group.Size()) {
  RNA_CHECK_MSG(world_ > 0 && ctx.my_index < world_, "bad group index");
  RNA_CHECK_MSG(exact_tail_ <= data_.size(),
                "exact tail larger than the buffer");
  if (format_ == net::wire::Format::kTopK) {
    RNA_CHECK_MSG(topk_fraction_ > 0.0 && topk_fraction_ <= 1.0,
                  "top-k fraction must be in (0, 1]");
  }
  if (feedback_ != nullptr &&
      feedback_->Size() < feedback_offset_ + data_.size()) {
    feedback_->EnsureSize(feedback_offset_ + data_.size());
  }
  if (world_ == 1) return;  // total_steps_ stays 0: Done() immediately
  // The StragglAR-style permutation moves the straggler to the tail
  // *position*; everyone else keeps their relative order. Positions — not
  // member indices — own chunks and define neighbors, so the permutation
  // re-routes the ring without touching tags or membership.
  std::size_t pos = ctx.my_index;
  if (straggler_ < world_) {
    if (ctx.my_index == straggler_) {
      pos = world_ - 1;
    } else if (ctx.my_index > straggler_) {
      pos = ctx.my_index - 1;
    }
  }
  pos_ = pos;
  self_ = ctx.group.At(ctx.my_index);
  right_ = ctx.group.At(PosToIndex((pos_ + 1) % world_));
  chunk_base_ = data_.size() / world_;
  chunk_extra_ = data_.size() % world_;
  total_steps_ = 2 * (world_ - 1);
}

std::size_t RingPass::PosToIndex(std::size_t pos) const {
  if (straggler_ >= world_) return pos;
  if (pos == world_ - 1) return straggler_;
  return pos < straggler_ ? pos : pos + 1;
}

std::size_t RingPass::OffsetOf(std::size_t c) const {
  // Chunk boundaries dividing the data into `world_` near-equal ranges:
  // the first `chunk_extra_` chunks carry one extra element. With
  // n < world the tail chunks are empty — their hop messages carry a
  // zero-length payload, which the fabric (and its fault rules) treat
  // like any other message.
  return c * chunk_base_ + std::min(c, chunk_extra_);
}

std::span<float> RingPass::Chunk(std::size_t c) const {
  return data_.subspan(OffsetOf(c), OffsetOf(c + 1) - OffsetOf(c));
}

std::size_t RingPass::TailInChunk(std::size_t c) const {
  // How many of the buffer's last `exact_tail_` elements land in chunk c.
  if (exact_tail_ == 0) return 0;
  const std::size_t lo = OffsetOf(c);
  const std::size_t hi = OffsetOf(c + 1);
  const std::size_t tail_lo = data_.size() - exact_tail_;
  const std::size_t from = std::max(lo, tail_lo);
  return hi > from ? hi - from : 0;
}

int RingPass::TagOf(std::size_t step) const {
  // Reduce-scatter steps use tag_base + step; all-gather steps keep the
  // historical tag_base + world + gather_step layout (the tag at
  // tag_base + world − 1 is unused). See RingTagSpan in schedule.hpp.
  const std::size_t reduce_steps = world_ - 1;
  if (step < reduce_steps) return tag_base_ + static_cast<int>(step);
  return tag_base_ + static_cast<int>(world_ + (step - reduce_steps));
}

std::vector<float> RingPass::EncodeChunk(std::size_t c) {
  const auto out = Chunk(c);
  const std::size_t tail = TailInChunk(c);
  std::span<float> residual{};
  if (feedback_ != nullptr) {
    residual = feedback_->Slice(feedback_offset_ + OffsetOf(c), out.size());
  }
  const std::size_t k =
      format_ == net::wire::Format::kTopK
          ? net::wire::TopKCount(out.size() - tail, topk_fraction_)
          : 0;
  return net::wire::Encode(fabric_->Pool(), format_, out, residual, k, tail);
}

void RingPass::LaunchHop() {
  if (Done() || failed_ || sent_) return;
  const std::size_t reduce_steps = world_ - 1;
  const bool reducing = step_ < reduce_steps;
  const std::size_t s = reducing ? step_ : step_ - reduce_steps;
  const std::size_t send_chunk = reducing
                                     ? (pos_ + world_ - s) % world_
                                     : (pos_ + 1 + world_ - s) % world_;
  net::Message msg;
  msg.tag = TagOf(step_);
  if (!reducing && s > 0) {
    // All-gather forwards: pass the frame received last hop on verbatim.
    // Re-encoding would apply quantization loss once per hop instead of
    // once per chunk and break the all-ranks-identical guarantee.
    RNA_CHECK_MSG(forward_.has_value(), "gather forward frame missing");
    msg.data = std::move(*forward_);
    forward_.reset();
  } else {
    msg.data = EncodeChunk(send_chunk);
    if (!reducing && format_ != net::wire::Format::kRaw) {
      // First gather hop: the chunk owner broadcasts its reduced chunk.
      // Self-apply the lossy round-trip so the owner's copy is bitwise
      // what every other rank will decode.
      net::wire::Decode(format_, msg.data, Chunk(send_chunk),
                        net::wire::Fold::kAssign, TailInChunk(send_chunk));
    }
  }
  fabric_->CountWire(format_, Chunk(send_chunk).size() * sizeof(float),
                     msg.data.size() * sizeof(float));
  fabric_->Send(self_, right_, std::move(msg));
  sent_ = true;
}

bool RingPass::CompleteHop() {
  if (failed_) return false;
  if (Done()) return true;
  LaunchHop();
  auto in = fabric_->RecvFor(self_, TagOf(step_), hop_timeout_);
  if (!in.has_value()) {
    failed_ = true;
    return false;
  }
  const std::size_t reduce_steps = world_ - 1;
  const bool reducing = step_ < reduce_steps;
  const std::size_t s = reducing ? step_ : step_ - reduce_steps;
  const std::size_t recv_chunk = reducing
                                     ? (pos_ + 2 * world_ - s - 1) % world_
                                     : (pos_ + 2 * world_ - s) % world_;
  const auto target = Chunk(recv_chunk);
  net::wire::Decode(format_, in->data, target,
                    reducing ? net::wire::Fold::kAdd
                             : net::wire::Fold::kAssign,
                    TailInChunk(recv_chunk));
  if (!reducing && s + 1 < reduce_steps) {
    // This frame is this rank's next gather send; keep it intact.
    forward_ = std::move(in->data);
  } else {
    fabric_->Pool().Recycle(std::move(in->data));
  }
  ++step_;
  sent_ = false;
  return true;
}

bool BroadcastFor(net::Fabric& fabric, const Group& group,
                  std::size_t my_index, std::size_t root_index,
                  std::span<float> data, int tag_base,
                  common::Seconds timeout) {
  const std::size_t world = group.Size();
  RNA_CHECK_MSG(my_index < world && root_index < world, "bad group index");
  if (world == 1) return true;
  const Rank self = group.At(my_index);
  if (my_index == root_index) {
    for (std::size_t i = 0; i < world; ++i) {
      if (i == root_index) continue;
      net::Message msg;
      msg.tag = tag_base;
      msg.data = fabric.Pool().Acquire(data.size());
      std::copy(data.begin(), data.end(), msg.data.begin());
      fabric.Send(self, group.At(i), std::move(msg));
    }
  } else {
    auto in = fabric.RecvFor(self, tag_base, timeout);
    if (!in.has_value()) return false;
    RNA_CHECK_MSG(in->data.size() == data.size(), "broadcast size mismatch");
    std::copy(in->data.begin(), in->data.end(), data.begin());
    fabric.Pool().Recycle(std::move(in->data));
  }
  return true;
}

void Broadcast(net::Fabric& fabric, const Group& group, std::size_t my_index,
               std::size_t root_index, std::span<float> data, int tag_base) {
  RNA_CHECK_MSG(BroadcastFor(fabric, group, my_index, root_index, data,
                             tag_base, common::kNoDeadline),
                "fabric shut down mid-broadcast");
}

bool BarrierFor(net::Fabric& fabric, const Group& group, std::size_t my_index,
                int tag_base, common::Seconds timeout) {
  const std::size_t world = group.Size();
  RNA_CHECK_MSG(my_index < world, "bad group index");
  if (world == 1) return true;
  const Rank self = group.At(my_index);
  const Rank leader = group.At(0);
  // One deadline covers the whole barrier, so a leader stuck waiting for a
  // dead member cannot stretch the wait to (world − 1) × timeout. Once it
  // has passed, each remaining receive is a single poll.
  const common::Stopwatch watch;
  auto recv_step = [&](int tag) {
    return fabric.RecvFor(self, tag, timeout - watch.Elapsed());
  };
  if (my_index == 0) {
    for (std::size_t i = 1; i < world; ++i) {
      if (!recv_step(tag_base).has_value()) return false;
    }
    for (std::size_t i = 1; i < world; ++i) {
      net::Message release;
      release.tag = tag_base + 1;
      fabric.Send(self, group.At(i), std::move(release));
    }
    return true;
  }
  net::Message arrive;
  arrive.tag = tag_base;
  fabric.Send(self, leader, std::move(arrive));
  return recv_step(tag_base + 1).has_value();
}

void Barrier(net::Fabric& fabric, const Group& group, std::size_t my_index,
             int tag_base) {
  RNA_CHECK_MSG(BarrierFor(fabric, group, my_index, tag_base,
                           common::kNoDeadline),
                "fabric shut down mid-barrier");
}

}  // namespace rna::collectives
