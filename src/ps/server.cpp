#include "rna/ps/server.hpp"

#include <algorithm>
#include <string>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"

namespace rna::ps {

namespace {

// meta layout for requests: [0]=ApplyMode, [1]=want_reply, [2]=has_payload
// meta layout for replies:  [0]=version
constexpr std::size_t kMetaMode = 0;
constexpr std::size_t kMetaWantReply = 1;
constexpr std::size_t kMetaHasPayload = 2;

// Mode sentinel carried by the self-addressed stop poke; real requests in
// flight ahead of it are still served.
constexpr std::int64_t kStopSentinel = -1;

}  // namespace

ParameterServer::ParameterServer(net::Fabric& fabric, Rank rank,
                                 std::vector<float> initial)
    : fabric_(fabric), rank_(rank), state_(std::move(initial)) {}

ParameterServer::~ParameterServer() { Stop(); }

void ParameterServer::Start() {
  RNA_CHECK_MSG(!thread_.joinable(), "server already started");
  stop_.store(false);
  thread_ = std::thread([this] { ServeLoop(); });
}

void ParameterServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  // A self-addressed stop poke: the server drains requests already queued
  // ahead of it, then exits when the poke is reached.
  net::Message poke;
  poke.tag = PsTags::kRequest;
  poke.meta = {kStopSentinel, 0, 0};
  fabric_.Send(rank_, rank_, std::move(poke));
  thread_.join();
}

std::vector<float> ParameterServer::Snapshot() const {
  common::MutexLock lock(state_mu_);
  return state_;
}

void ParameterServer::ServeLoop() {
  // One track per server: a track is a single-producer ring, and sharded
  // and tree-structured PS banks run several servers at once. No "worker"
  // prefix, which trace consumers read as a worker's timeline.
  const obs::TrackHandle track =
      obs::RegisterTrack("ps" + std::to_string(rank_));
  for (;;) {
    // Wake periodically to notice stop/shutdown even if the self-addressed
    // stop poke is swallowed by an injected drop.
    auto req = fabric_.RecvFor(rank_, PsTags::kRequest, 0.05);
    if (!req.has_value()) {
      if (stop_.load() || fabric_.IsClosed(rank_)) return;
      continue;  // idle timeout
    }
    RNA_CHECK_MSG(req->meta.size() >= 3, "malformed PS request");
    if (req->meta[kMetaMode] == kStopSentinel) return;
    obs::ScopedTimer rpc_timer(track, obs::Category::kRpc, "serve_request");
    rpc_timer.SetArg("src", static_cast<double>(req->src));
    obs::CountMetric("ps.requests");
    const auto mode = static_cast<ApplyMode>(req->meta[kMetaMode]);
    const bool want_reply = req->meta[kMetaWantReply] != 0;
    const bool has_payload = req->meta[kMetaHasPayload] != 0;

    net::Message reply;
    reply.tag = PsTags::kReply;
    {
      common::MutexLock lock(state_mu_);
      if (has_payload) {
        RNA_CHECK_MSG(req->data.size() == state_.size(),
                      "PS payload dimension mismatch");
        switch (mode) {
          case ApplyMode::kAssign:
            std::copy(req->data.begin(), req->data.end(), state_.begin());
            break;
          case ApplyMode::kAddDelta:
            common::simd::AddInto(state_, req->data);
            break;
          case ApplyMode::kAverage:
            common::simd::AverageInto(state_, req->data);
            break;
        }
        ++version_;
      }
    }
    fabric_.Pool().Recycle(std::move(req->data));
    // Interior tree node: fold the updated state into the parent *before*
    // replying, so the caller reads state already averaged toward the
    // root and — under lockstep, where callers are gate-serialized — the
    // whole tree's request order stays deterministic.
    if (has_parent_ && has_payload &&
        ++applied_since_parent_sync_ >= parent_sync_every_) {
      applied_since_parent_sync_ = 0;
      SyncWithParent();
    }
    if (want_reply) {
      common::MutexLock lock(state_mu_);
      reply.meta = {version_};
      // Pooled reply payload: push requests recycled above keep the
      // freelist warm, so the pull-reply path stops allocating once the
      // protocol reaches steady state.
      reply.data = fabric_.Pool().Acquire(state_.size());
      std::copy(state_.begin(), state_.end(), reply.data.begin());
    }
    requests_served_.fetch_add(1);
    if (want_reply) fabric_.Send(rank_, req->src, std::move(reply));
  }
}

void ParameterServer::ConfigureParent(Rank parent, std::size_t sync_every,
                                      std::size_t retry_budget,
                                      double retry_timeout_s) {
  RNA_CHECK_MSG(!thread_.joinable(), "configure the parent before Start()");
  RNA_CHECK_MSG(parent != rank_, "a PS node cannot be its own parent");
  RNA_CHECK_MSG(sync_every >= 1, "parent sync period must be >= 1");
  has_parent_ = true;
  parent_ = parent;
  parent_sync_every_ = sync_every;
  parent_retry_budget_ = retry_budget == 0 ? 1 : retry_budget;
  parent_retry_timeout_s_ = retry_timeout_s;
}

void ParameterServer::SyncWithParent() {
  obs::CountMetric("ps.parent_syncs");
  std::vector<float> snapshot;
  {
    common::MutexLock lock(state_mu_);
    snapshot = state_;
  }
  // The server thread doubles as a PS client on its own endpoint: replies
  // carry PsTags::kReply, which ServeLoop never consumes, so the two
  // roles cannot steal each other's messages.
  PsClient up(fabric_, rank_, parent_);
  up.ConfigureRetry(parent_retry_budget_, parent_retry_timeout_s_);
  auto merged = up.TryPushPull(snapshot, ApplyMode::kAverage);
  if (!merged.has_value()) {
    // Budget exhausted (lossy fabric) or shutdown: keep serving the local
    // state; the next due sync folds it in.
    obs::CountMetric("ps.parent_sync_skipped");
    return;
  }
  common::MutexLock lock(state_mu_);
  state_ = std::move(*merged);
  ++version_;
}

void PsClient::ConfigureRetry(std::size_t budget, double first_timeout_s) {
  retry_budget_ = budget == 0 ? 1 : budget;
  retry_timeout_s_ = first_timeout_s;
}

std::optional<std::vector<float>> PsClient::TryCall(
    std::span<const float> values, ApplyMode mode, bool want_reply) {
  // A retried request can produce two replies; drain leftovers so a stale
  // reply from the previous call can never satisfy this one.
  while (auto stale = fabric_->TryRecv(self_, PsTags::kReply)) {
    fabric_->Pool().Recycle(std::move(stale->data));
    obs::CountMetric("ps.stale_replies_dropped");
  }

  auto parse = [&](net::Message& reply) -> std::vector<float> {
    RNA_CHECK_MSG(!reply.meta.empty(), "malformed PS reply");
    last_version_ = reply.meta[0];
    return std::move(reply.data);
  };

  for (std::size_t attempt = 0; attempt < retry_budget_; ++attempt) {
    if (attempt > 0) obs::CountMetric("ps.retries");
    net::Message req;
    req.tag = PsTags::kRequest;
    req.meta = {static_cast<std::int64_t>(mode), want_reply ? 1 : 0,
                values.empty() ? 0 : 1};
    req.data = fabric_->Pool().Acquire(values.size());
    std::copy(values.begin(), values.end(), req.data.begin());
    fabric_->Send(self_, server_, std::move(req));
    if (!want_reply) return std::vector<float>{};

    // Exponential backoff: t, 2t, 4t, ... per attempt, flat from attempt 63
    // on so no retry budget overflows the shift. Under kNoDeadline the
    // first attempt waits until the reply or shutdown.
    const std::size_t doublings = std::min<std::size_t>(attempt, 63);
    const double timeout =
        retry_timeout_s_ * static_cast<double>(std::uint64_t{1} << doublings);
    auto reply = fabric_->RecvFor(self_, PsTags::kReply, timeout);
    if (reply.has_value()) return parse(*reply);
    if (fabric_->IsClosed(self_)) return std::nullopt;
  }
  obs::CountMetric("ps.call_failures");
  return std::nullopt;
}

std::vector<float> PsClient::Call(std::span<const float> values,
                                  ApplyMode mode, bool want_reply) {
  auto result = TryCall(values, mode, want_reply);
  RNA_CHECK_MSG(result.has_value(),
                "PS call failed: fabric shut down or retry budget exhausted");
  return std::move(*result);
}

void PsClient::Push(std::span<const float> values, ApplyMode mode) {
  RNA_CHECK_MSG(!values.empty(), "Push requires a payload");
  Call(values, mode, /*want_reply=*/false);
}

std::vector<float> PsClient::Pull() {
  return Call({}, ApplyMode::kAssign, /*want_reply=*/true);
}

std::optional<std::vector<float>> PsClient::TryPull() {
  return TryCall({}, ApplyMode::kAssign, /*want_reply=*/true);
}

std::vector<float> PsClient::PushPull(std::span<const float> values,
                                      ApplyMode mode) {
  RNA_CHECK_MSG(!values.empty(), "PushPull requires a payload");
  return Call(values, mode, /*want_reply=*/true);
}

std::optional<std::vector<float>> PsClient::TryPushPull(
    std::span<const float> values, ApplyMode mode) {
  RNA_CHECK_MSG(!values.empty(), "PushPull requires a payload");
  return TryCall(values, mode, /*want_reply=*/true);
}

}  // namespace rna::ps
