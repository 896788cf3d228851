#include "rna/collectives/schedule.hpp"

#include <algorithm>

#include "rna/collectives/allreduce.hpp"
#include "rna/common/check.hpp"

namespace rna::collectives {

const char* ScheduleName(Schedule s) {
  switch (s) {
    case Schedule::kRing:
      return "ring";
    case Schedule::kTree:
      return "tree";
    case Schedule::kStragglar:
      return "stragglar";
  }
  return "unknown";
}

std::optional<Schedule> ParseSchedule(std::string_view name) {
  if (name == "ring") return Schedule::kRing;
  if (name == "tree") return Schedule::kTree;
  if (name == "stragglar") return Schedule::kStragglar;
  return std::nullopt;
}

TreePass::TreePass(const CollectiveContext& ctx,
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
  if (world_ == 1) return;  // stage_ stays kDone
  pos_ = ctx.my_index;
  self_ = ctx.group.At(ctx.my_index);
  top_mask_ = 1;
  while (top_mask_ * 2 < world_) top_mask_ *= 2;
  level_ = 0;
  if (pos_ != 0) {
    level_ = pos_ & (~pos_ + 1);  // lowest set bit: the up-sweep round
  }
  stage_ = Stage::kReduce;
  reduce_mask_ = 1;
}

std::vector<float> TreePass::EncodeFrame() {
  std::span<float> residual{};
  if (feedback_ != nullptr) {
    residual = feedback_->Slice(feedback_offset_, data_.size());
  }
  const std::size_t k =
      format_ == net::wire::Format::kTopK
          ? net::wire::TopKCount(data_.size() - exact_tail_, topk_fraction_)
          : 0;
  return net::wire::Encode(fabric_->Pool(), format_, data_, residual, k,
                           exact_tail_);
}

void TreePass::SendFrame(std::size_t to_pos, int tag, bool last) {
  RNA_CHECK_MSG(frame_.has_value(), "tree frame missing");
  net::Message msg;
  msg.tag = tag;
  if (last) {
    msg.data = std::move(*frame_);
    frame_.reset();
  } else {
    msg.data = fabric_->Pool().Acquire(frame_->size());
    std::copy(frame_->begin(), frame_->end(), msg.data.begin());
  }
  fabric_->CountWire(format_, data_.size() * sizeof(float),
                     msg.data.size() * sizeof(float));
  fabric_->Send(self_, group_->At(to_pos), std::move(msg));
}

void TreePass::BeginBroadcast() {
  // Root: encode the finished sum once; every child (and their subtrees)
  // receives this exact frame, and the root self-applies the lossy
  // round-trip so all ranks end bitwise identical.
  frame_ = EncodeFrame();
  if (format_ != net::wire::Format::kRaw) {
    net::wire::Decode(format_, *frame_, data_, net::wire::Fold::kAssign,
                      exact_tail_);
  }
  bcast_mask_ = top_mask_;
  stage_ = Stage::kBcastSend;
}

void TreePass::LaunchHop() {
  if (failed_) return;
  for (;;) {
    switch (stage_) {
      case Stage::kReduce: {
        if (reduce_mask_ >= world_) {
          // Root folded every subtree; fan the result out.
          BeginBroadcast();
          continue;
        }
        if ((pos_ & reduce_mask_) != 0) {
          // My up-sweep round: send the partial sum and wait for the
          // broadcast to come back down.
          frame_ = EncodeFrame();
          SendFrame(pos_ - reduce_mask_,
                    tag_base_ + static_cast<int>(pos_), /*last=*/true);
          stage_ = Stage::kBcastRecv;
          continue;
        }
        if (pos_ + reduce_mask_ < world_) return;  // next op is a receive
        reduce_mask_ <<= 1;
        continue;
      }
      case Stage::kBcastRecv:
        return;  // next op is a receive
      case Stage::kBcastSend: {
        while (bcast_mask_ > 0) {
          if (pos_ + bcast_mask_ < world_) {
            SendFrame(pos_ + bcast_mask_,
                      tag_base_ +
                          static_cast<int>(world_ + pos_ + bcast_mask_),
                      /*last=*/bcast_mask_ == 1);
          }
          bcast_mask_ >>= 1;
        }
        if (frame_.has_value()) {
          // No child took ownership (tail position): return the frame.
          fabric_->Pool().Recycle(std::move(*frame_));
          frame_.reset();
        }
        stage_ = Stage::kDone;
        continue;
      }
      case Stage::kDone:
        return;
    }
  }
}

bool TreePass::CompleteHop() {
  if (failed_) return false;
  LaunchHop();
  if (Done()) return true;
  if (stage_ == Stage::kReduce) {
    const std::size_t child = pos_ + reduce_mask_;
    auto in = fabric_->RecvFor(self_, tag_base_ + static_cast<int>(child),
                               hop_timeout_);
    if (!in.has_value()) {
      failed_ = true;
      return false;
    }
    net::wire::Decode(format_, in->data, data_, net::wire::Fold::kAdd,
                      exact_tail_);
    fabric_->Pool().Recycle(std::move(in->data));
    reduce_mask_ <<= 1;
    LaunchHop();
    return true;
  }
  RNA_CHECK_MSG(stage_ == Stage::kBcastRecv, "tree pass out of sequence");
  auto in = fabric_->RecvFor(self_,
                             tag_base_ + static_cast<int>(world_ + pos_),
                             hop_timeout_);
  if (!in.has_value()) {
    failed_ = true;
    return false;
  }
  net::wire::Decode(format_, in->data, data_, net::wire::Fold::kAssign,
                    exact_tail_);
  const bool has_children = level_ > 1 && pos_ + 1 < world_;
  if (has_children) {
    frame_ = std::move(in->data);
    bcast_mask_ = level_ >> 1;
  } else {
    fabric_->Pool().Recycle(std::move(in->data));
    bcast_mask_ = 0;
  }
  stage_ = Stage::kBcastSend;
  LaunchHop();
  return true;
}

}  // namespace rna::collectives
