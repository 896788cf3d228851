#include "rna/ps/sharded.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/obs/metrics.hpp"

namespace rna::ps {

ShardedPsClient::ShardedPsClient(net::Fabric& fabric, Rank self,
                                 Rank first_server, std::size_t shards,
                                 std::size_t dim)
    : fabric_(&fabric),
      self_(self),
      first_server_(first_server),
      shards_(shards),
      dim_(dim),
      single_(fabric, self, first_server) {
  RNA_CHECK_MSG(shards >= 1, "need at least one PS shard");
  RNA_CHECK_MSG(dim >= shards, "more PS shards than parameters");
}

void ShardedPsClient::ConfigureRetry(std::size_t budget,
                                     double first_timeout_s) {
  single_.ConfigureRetry(budget, first_timeout_s);
  retry_budget_ = budget == 0 ? 1 : budget;
  retry_timeout_s_ = first_timeout_s;
}

std::optional<std::vector<float>> ShardedPsClient::TryCall(
    std::span<const float> values, ApplyMode mode, bool want_reply) {
  if (!values.empty()) {
    RNA_CHECK_MSG(values.size() == dim_,
                  "sharded PS payload dimension mismatch");
  }
  // A retried request can produce two replies; drain leftovers so a stale
  // reply from the previous call can never satisfy this one.
  while (auto stale = fabric_->TryRecv(self_, PsTags::kReply)) {
    fabric_->Pool().Recycle(std::move(stale->data));
    obs::CountMetric("ps.stale_replies_dropped");
  }

  std::vector<float> out(want_reply ? dim_ : 0);
  std::vector<bool> have(shards_, false);
  std::size_t got = 0;

  auto send_shard = [&](std::size_t s) {
    net::Message req;
    req.tag = PsTags::kRequest;
    req.meta = {static_cast<std::int64_t>(mode), want_reply ? 1 : 0,
                values.empty() ? 0 : 1};
    if (!values.empty()) {
      const std::size_t first = ShardFirst(dim_, shards_, s);
      const std::size_t last = ShardLast(dim_, shards_, s);
      req.data = fabric_->Pool().Acquire(last - first);
      std::copy(values.begin() + static_cast<std::ptrdiff_t>(first),
                values.begin() + static_cast<std::ptrdiff_t>(last),
                req.data.begin());
    }
    fabric_->Send(self_, first_server_ + s, std::move(req));
  };
  // Accepts a shard reply; duplicates (from a slow-then-retried request)
  // are recycled and ignored.
  auto accept = [&](net::Message& reply) {
    if (reply.src < first_server_ ||
        reply.src >= first_server_ + static_cast<Rank>(shards_)) {
      fabric_->Pool().Recycle(std::move(reply.data));
      return;
    }
    const auto s = static_cast<std::size_t>(reply.src - first_server_);
    if (have[s]) {
      fabric_->Pool().Recycle(std::move(reply.data));
      obs::CountMetric("ps.stale_replies_dropped");
      return;
    }
    const std::size_t first = ShardFirst(dim_, shards_, s);
    RNA_CHECK_MSG(reply.data.size() == ShardLast(dim_, shards_, s) - first,
                  "sharded PS reply dimension mismatch");
    std::copy(reply.data.begin(), reply.data.end(),
              out.begin() + static_cast<std::ptrdiff_t>(first));
    fabric_->Pool().Recycle(std::move(reply.data));
    have[s] = true;
    ++got;
  };

  for (std::size_t attempt = 0; attempt < retry_budget_; ++attempt) {
    if (attempt > 0) obs::CountMetric("ps.retries");
    // Stripe: every (still-missing) shard's request goes out before any
    // reply is awaited, so the shards serve in parallel.
    for (std::size_t s = 0; s < shards_; ++s) {
      if (!have[s]) send_shard(s);
    }
    if (!want_reply) return std::vector<float>{};

    // Exponential backoff: t, 2t, 4t, ... per attempt, flat from attempt 63
    // on so no retry budget overflows the shift; each shard reply renews
    // the window (the stripe is making progress). Under kNoDeadline the
    // first attempt waits until every shard answered or shutdown.
    const std::size_t doublings = std::min<std::size_t>(attempt, 63);
    const double timeout =
        retry_timeout_s_ * static_cast<double>(std::uint64_t{1} << doublings);
    while (got < shards_) {
      auto reply = fabric_->RecvFor(self_, PsTags::kReply, timeout);
      if (!reply.has_value()) break;
      accept(*reply);
    }
    if (got == shards_) return out;
    if (fabric_->IsClosed(self_)) return std::nullopt;
  }
  obs::CountMetric("ps.call_failures");
  return std::nullopt;
}

void ShardedPsClient::Push(std::span<const float> values, ApplyMode mode) {
  if (shards_ == 1) return single_.Push(values, mode);
  RNA_CHECK_MSG(!values.empty(), "Push requires a payload");
  TryCall(values, mode, /*want_reply=*/false);
}

std::vector<float> ShardedPsClient::Pull() {
  if (shards_ == 1) return single_.Pull();
  auto result = TryPull();
  RNA_CHECK_MSG(result.has_value(),
                "PS call failed: fabric shut down or retry budget exhausted");
  return std::move(*result);
}

std::optional<std::vector<float>> ShardedPsClient::TryPull() {
  if (shards_ == 1) return single_.TryPull();
  return TryCall({}, ApplyMode::kAssign, /*want_reply=*/true);
}

std::vector<float> ShardedPsClient::PushPull(std::span<const float> values,
                                             ApplyMode mode) {
  if (shards_ == 1) return single_.PushPull(values, mode);
  auto result = TryPushPull(values, mode);
  RNA_CHECK_MSG(result.has_value(),
                "PS call failed: fabric shut down or retry budget exhausted");
  return std::move(*result);
}

std::optional<std::vector<float>> ShardedPsClient::TryPushPull(
    std::span<const float> values, ApplyMode mode) {
  if (shards_ == 1) return single_.TryPushPull(values, mode);
  RNA_CHECK_MSG(!values.empty(), "PushPull requires a payload");
  return TryCall(values, mode, /*want_reply=*/true);
}

}  // namespace rna::ps
