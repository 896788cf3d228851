#pragma once

// A ps-lite-style parameter server on the fabric: a server thread owning a
// flat parameter vector, and client handles exposing Push / Pull / PushPull.
// Requests from different clients are served independently in arrival
// order, which is exactly the asynchronous-across-groups behaviour the
// paper's hierarchical synchronization relies on (§4, §6): each group
// initiator PushPulls its group model whenever it finishes a round, with no
// cross-group barrier.

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "rna/common/clock.hpp"
#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"
#include "rna/net/fabric.hpp"

namespace rna::ps {

using net::Rank;

/// How a pushed vector is folded into the server state.
enum class ApplyMode : std::int64_t {
  kAssign = 0,   ///< state = x
  kAddDelta = 1, ///< state += x            (gradient-push style)
  kAverage = 2,  ///< state = (state + x)/2 (model averaging, paper §6)
};

/// Message tags used on the server endpoint; replies are delivered to the
/// client's endpoint with kReply.
struct PsTags {
  static constexpr int kRequest = 9000;
  static constexpr int kReply = 9001;
};

class ParameterServer {
 public:
  /// The server owns fabric endpoint `rank` and a state vector of `dim`
  /// floats (initialized from `initial`).
  ParameterServer(net::Fabric& fabric, Rank rank,
                  std::vector<float> initial);
  ~ParameterServer();

  ParameterServer(const ParameterServer&) = delete;
  ParameterServer& operator=(const ParameterServer&) = delete;

  void Start();
  /// Stops the server thread (idempotent). The fabric must still be alive.
  /// With ConfigureParent, stop children before their parent (reverse tree
  /// id order) so an in-flight parent sync can still be answered.
  void Stop();

  /// Makes this server an interior node of a PS tree: after every
  /// `sync_every` applied payloads it PushPulls its whole state to the
  /// same-shard server at `parent` (kAverage) and adopts the merged
  /// result *before* replying, so a client always reads state that has
  /// been folded toward the root. Call before Start(). `retry_budget` /
  /// `retry_timeout_s` follow PsClient::ConfigureRetry semantics (the
  /// default waits for the parent until it replies or shuts down); on an
  /// exhausted budget the sync is skipped (counted, state kept local).
  void ConfigureParent(Rank parent, std::size_t sync_every,
                       std::size_t retry_budget = 1,
                       double retry_timeout_s = common::kNoDeadline);

  Rank ServerRank() const { return rank_; }
  std::uint64_t RequestsServed() const { return requests_served_.load(); }

  /// Snapshot of the state, for tests.
  std::vector<float> Snapshot() const;

 private:
  void ServeLoop();
  void SyncWithParent();

  net::Fabric& fabric_;
  Rank rank_;
  mutable common::Mutex state_mu_;
  std::vector<float> state_ RNA_GUARDED_BY(state_mu_);
  std::int64_t version_ RNA_GUARDED_BY(state_mu_) = 0;
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;

  // Parent-sync wiring (ServeLoop-thread only after Start()).
  bool has_parent_ = false;
  Rank parent_ = 0;
  std::size_t parent_sync_every_ = 1;
  std::size_t parent_retry_budget_ = 1;
  double parent_retry_timeout_s_ = common::kNoDeadline;
  std::size_t applied_since_parent_sync_ = 0;
};

/// Client handle bound to one fabric endpoint.
///
/// Fault tolerance: the reply wait follows the project's deadline
/// convention (common::kNoDeadline). By default it has no deadline: a
/// reply-bearing call waits until the reply arrives or the fabric shuts
/// down — the lossless-fabric behavior. ConfigureRetry(budget, t) with a
/// finite t switches to bounded retry with exponential backoff: the
/// request is re-sent after t, 2t, 4t, … seconds, `budget` attempts total
/// (budget 1 is one bounded attempt), and the Try* calls return
/// std::nullopt when the budget is exhausted (the non-Try wrappers treat
/// that as fatal). Retries are at-least-once: a slow (rather than dropped)
/// request can be applied twice, which ApplyMode::kAverage absorbs (it
/// re-averages toward the same fixpoint) but kAddDelta does not — callers
/// that push deltas over a lossy fabric accept that gradient noise.
class PsClient {
 public:
  PsClient(net::Fabric& fabric, Rank self, Rank server)
      : fabric_(&fabric), self_(self), server_(server) {}

  /// Sets the retry policy (see class comment): `budget` total attempts
  /// (0 counts as 1), the first waiting `first_timeout_s`. A
  /// common::kNoDeadline timeout restores the wait-until-reply default,
  /// whatever the budget.
  void ConfigureRetry(std::size_t budget, double first_timeout_s);

  /// Fold `values` into the server state; no reply payload.
  void Push(std::span<const float> values, ApplyMode mode);

  /// Fetch the current server state.
  std::vector<float> Pull();

  /// Like Pull, but returns std::nullopt when the retry budget is
  /// exhausted (e.g., an elastic joiner fetching its first model over a
  /// lossy fabric retries on the next token instead of dying).
  std::optional<std::vector<float>> TryPull();

  /// Atomically fold `values` in and return the post-update state — the
  /// PSPushPull() of the paper's hierarchical synchronization.
  std::vector<float> PushPull(std::span<const float> values, ApplyMode mode);

  /// Like PushPull, but returns std::nullopt instead of dying when the
  /// retry budget is exhausted (the caller skips this sync and moves on).
  std::optional<std::vector<float>> TryPushPull(std::span<const float> values,
                                                ApplyMode mode);

  /// Server-side version observed by the last Pull/PushPull.
  std::int64_t LastVersion() const { return last_version_; }

 private:
  std::vector<float> Call(std::span<const float> values, ApplyMode mode,
                          bool want_reply);
  std::optional<std::vector<float>> TryCall(std::span<const float> values,
                                            ApplyMode mode, bool want_reply);

  net::Fabric* fabric_;
  Rank self_;
  Rank server_;
  std::size_t retry_budget_ = 1;
  double retry_timeout_s_ = common::kNoDeadline;
  std::int64_t last_version_ = 0;
};

}  // namespace rna::ps
