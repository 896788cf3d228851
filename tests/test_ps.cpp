// Tests for the ps-lite-style parameter server: apply modes, push/pull
// round trips, versioning, concurrent clients, clean shutdown — plus the
// scale-out layer: range-sharded servers behind ShardedPsClient and
// parent-folding in the recursive PS tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "rna/common/clock.hpp"
#include "rna/net/fabric.hpp"
#include "rna/obs/session.hpp"
#include "rna/ps/server.hpp"
#include "rna/ps/sharded.hpp"

namespace rna::ps {
namespace {

TEST(ParameterServer, PullReturnsInitialState) {
  net::Fabric fabric(3);
  ParameterServer server(fabric, 2, {1.0f, 2.0f, 3.0f});
  server.Start();
  PsClient client(fabric, 0, 2);
  const auto state = client.Pull();
  EXPECT_EQ(state, (std::vector<float>{1.0f, 2.0f, 3.0f}));
  server.Stop();
}

TEST(ParameterServer, PushAssignReplacesState) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f, 0.0f});
  server.Start();
  PsClient client(fabric, 0, 1);
  client.Push(std::vector<float>{5.0f, 6.0f}, ApplyMode::kAssign);
  EXPECT_EQ(client.Pull(), (std::vector<float>{5.0f, 6.0f}));
  server.Stop();
}

TEST(ParameterServer, PushAddDeltaAccumulates) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {1.0f});
  server.Start();
  PsClient client(fabric, 0, 1);
  client.Push(std::vector<float>{2.0f}, ApplyMode::kAddDelta);
  client.Push(std::vector<float>{3.0f}, ApplyMode::kAddDelta);
  EXPECT_EQ(client.Pull(), (std::vector<float>{6.0f}));
  server.Stop();
}

TEST(ParameterServer, PushPullAveragesAtomically) {
  // The hierarchical path: group pushes its model, receives the running
  // average.
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  PsClient client(fabric, 0, 1);
  const auto first = client.PushPull(std::vector<float>{8.0f},
                                     ApplyMode::kAverage);
  EXPECT_EQ(first, (std::vector<float>{4.0f}));  // (0+8)/2
  const auto second = client.PushPull(std::vector<float>{4.0f},
                                      ApplyMode::kAverage);
  EXPECT_EQ(second, (std::vector<float>{4.0f}));  // (4+4)/2
  server.Stop();
}

TEST(ParameterServer, VersionIncrementsOnWrites) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  PsClient client(fabric, 0, 1);
  client.Pull();
  EXPECT_EQ(client.LastVersion(), 0);
  client.PushPull(std::vector<float>{1.0f}, ApplyMode::kAssign);
  EXPECT_EQ(client.LastVersion(), 1);
  client.PushPull(std::vector<float>{1.0f}, ApplyMode::kAssign);
  EXPECT_EQ(client.LastVersion(), 2);
  server.Stop();
}

TEST(ParameterServer, MixedModesCompose) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {2.0f});
  server.Start();
  PsClient client(fabric, 0, 1);
  client.Push(std::vector<float>{4.0f}, ApplyMode::kAverage);   // (2+4)/2 = 3
  client.Push(std::vector<float>{1.0f}, ApplyMode::kAddDelta);  // 4
  EXPECT_EQ(client.PushPull(std::vector<float>{0.0f}, ApplyMode::kAverage),
            (std::vector<float>{2.0f}));  // (4+0)/2
  server.Stop();
}

TEST(ParameterServer, ConcurrentClientsAllServed) {
  const std::size_t clients = 6;
  net::Fabric fabric(clients + 1);
  ParameterServer server(fabric, clients, std::vector<float>{0.0f});
  server.Start();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PsClient client(fabric, c, clients);
      for (int i = 0; i < 50; ++i) {
        client.PushPull(std::vector<float>{1.0f}, ApplyMode::kAddDelta);
      }
    });
  }
  for (auto& t : threads) t.join();
  PsClient reader(fabric, 0, clients);
  EXPECT_EQ(reader.Pull()[0], 300.0f);  // 6 clients × 50 increments
  EXPECT_GE(server.RequestsServed(), 301u);
  server.Stop();
}

TEST(ParameterServer, SnapshotMatchesPull) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {1.5f, 2.5f});
  server.Start();
  PsClient client(fabric, 0, 1);
  client.Push(std::vector<float>{1.0f, 1.0f}, ApplyMode::kAddDelta);
  const auto pulled = client.Pull();  // serializes behind the Push
  EXPECT_EQ(pulled, server.Snapshot());
  server.Stop();
}

TEST(ParameterServer, StopIsIdempotent) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  server.Stop();
  server.Stop();  // second stop is a no-op
}

TEST(ParameterServer, RestartAfterStop) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  PsClient client(fabric, 0, 1);
  client.Push(std::vector<float>{3.0f}, ApplyMode::kAssign);
  server.Stop();
  server.Start();
  EXPECT_EQ(client.Pull(), (std::vector<float>{3.0f}));
  server.Stop();
}

// ------------------------------------------------------- sharded clients

TEST(ShardedPs, ShardRangesPartitionEveryDim) {
  for (const std::size_t dim : {1u, 5u, 64u, 999u}) {
    for (std::size_t shards = 1; shards <= std::min<std::size_t>(dim, 8);
         ++shards) {
      std::size_t covered = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(ShardFirst(dim, shards, s), covered);
        const std::size_t len = ShardLast(dim, shards, s) - covered;
        EXPECT_GE(len, dim / shards);
        EXPECT_LE(len, dim / shards + 1);
        covered += len;
      }
      EXPECT_EQ(covered, dim);
    }
  }
}

// Helper: a bank of range-sharded servers over `init`, started on
// endpoints [first, first + shards).
std::vector<std::unique_ptr<ParameterServer>> StartShardBank(
    net::Fabric& fabric, net::Rank first, const std::vector<float>& init,
    std::size_t shards) {
  std::vector<std::unique_ptr<ParameterServer>> servers;
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<float> slice(
        init.begin() + static_cast<std::ptrdiff_t>(
                           ShardFirst(init.size(), shards, s)),
        init.begin() + static_cast<std::ptrdiff_t>(
                           ShardLast(init.size(), shards, s)));
    servers.push_back(std::make_unique<ParameterServer>(
        fabric, first + s, std::move(slice)));
    servers.back()->Start();
  }
  return servers;
}

TEST(ShardedPs, SingleShardMatchesPlainClientExactly) {
  // S = 1 must stay byte-identical to PsClient on the wire: one server,
  // two clients, interleaved writes observe each other.
  net::Fabric fabric(3);
  ParameterServer server(fabric, 2, {1.0f, 2.0f});
  server.Start();
  ShardedPsClient sharded(fabric, 0, 2, 1, 2);
  PsClient plain(fabric, 1, 2);
  sharded.Push(std::vector<float>{1.0f, 1.0f}, ApplyMode::kAddDelta);
  EXPECT_EQ(plain.Pull(), (std::vector<float>{2.0f, 3.0f}));
  plain.Push(std::vector<float>{0.0f, 0.0f}, ApplyMode::kAverage);
  EXPECT_EQ(sharded.Pull(), (std::vector<float>{1.0f, 1.5f}));
  server.Stop();
}

TEST(ShardedPs, MultiShardPushPullMatchesSinglePs) {
  // Equivalence oracle: the same op sequence against a 4-shard bank and
  // one full-dim server must produce identical states throughout.
  constexpr std::size_t kDim = 10;  // 4 shards of sizes 3/3/2/2
  constexpr std::size_t kShards = 4;
  std::vector<float> init(kDim);
  for (std::size_t i = 0; i < kDim; ++i) init[i] = static_cast<float>(i);

  net::Fabric fabric(2 + kShards + 1);
  auto bank = StartShardBank(fabric, 2, init, kShards);
  ParameterServer reference(fabric, 2 + kShards, init);
  reference.Start();
  ShardedPsClient sharded(fabric, 0, 2, kShards, kDim);
  PsClient plain(fabric, 1, 2 + kShards);

  const ApplyMode modes[] = {ApplyMode::kAddDelta, ApplyMode::kAverage,
                             ApplyMode::kAssign, ApplyMode::kAverage};
  for (int op = 0; op < 4; ++op) {
    std::vector<float> payload(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      payload[i] = static_cast<float>((op + 1) * 10 + i);
    }
    const auto a = sharded.PushPull(payload, modes[op]);
    const auto b = plain.PushPull(payload, modes[op]);
    ASSERT_EQ(a, b) << "op " << op;
  }
  EXPECT_EQ(sharded.Pull(), plain.Pull());
  for (auto& s : bank) s->Stop();
  reference.Stop();
}

TEST(ShardedPs, ConcurrentStripedClientsAllServed) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kDim = 7;
  net::Fabric fabric(kClients + kShards);
  auto bank =
      StartShardBank(fabric, kClients, std::vector<float>(kDim, 0.0f),
                     kShards);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ShardedPsClient client(fabric, c, kClients, kShards, kDim);
      for (int i = 0; i < 25; ++i) {
        client.PushPull(std::vector<float>(kDim, 1.0f),
                        ApplyMode::kAddDelta);
      }
    });
  }
  for (auto& t : threads) t.join();
  ShardedPsClient reader(fabric, 0, kClients, kShards, kDim);
  EXPECT_EQ(reader.Pull(), std::vector<float>(kDim, 100.0f));
  for (auto& s : bank) s->Stop();
}

TEST(ShardedPs, EachShardTracesOnItsOwnTrack) {
  // A trace track is a single-producer ring, so concurrently serving
  // shards must each record on a track of their own.
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kDim = 6;
  obs::Session session;
  net::Fabric fabric(1 + kShards);
  auto bank =
      StartShardBank(fabric, 1, std::vector<float>(kDim, 0.0f), kShards);
  ShardedPsClient client(fabric, 0, 1, kShards, kDim);
  for (int i = 0; i < 5; ++i) {
    client.PushPull(std::vector<float>(kDim, 1.0f), ApplyMode::kAddDelta);
  }
  for (auto& s : bank) s->Stop();

  std::vector<std::string> names;
  for (const auto& track : session.Trace().Snapshot()) {
    EXPECT_FALSE(track.spans.empty()) << track.name;
    names.push_back(track.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"ps1", "ps2"}));
}

// ---------------------------------------------------------- parent folds

TEST(ShardedPs, ParentSyncFoldsChildIntoParent) {
  // Two-node tree, one shard: the child averages its state into the root
  // after every applied payload (sync_every = 1), so a client pushing to
  // the child sees state that reflects the root's — cross-group averaging
  // through the tree instead of a shared endpoint.
  net::Fabric fabric(3);
  ParameterServer root(fabric, 1, {0.0f});
  root.Start();
  ParameterServer child(fabric, 2, {0.0f});
  child.ConfigureParent(1, /*sync_every=*/1);
  child.Start();

  PsClient client(fabric, 0, 2);
  // Child applies 8 -> state 8; the parent sync runs before the reply, so
  // the returned state is already root-averaged: (0+8)/2 = 4 at the root,
  // child adopts 4.
  const auto replied = client.PushPull(std::vector<float>{8.0f},
                                       ApplyMode::kAssign);
  EXPECT_EQ(replied, (std::vector<float>{4.0f}));
  EXPECT_EQ(root.Snapshot(), (std::vector<float>{4.0f}));
  EXPECT_EQ(child.Snapshot(), (std::vector<float>{4.0f}));
  child.Stop();  // children before parents
  root.Stop();
}

TEST(ShardedPs, ParentSyncHonorsSyncEvery) {
  net::Fabric fabric(3);
  ParameterServer root(fabric, 1, {0.0f});
  root.Start();
  ParameterServer child(fabric, 2, {0.0f});
  child.ConfigureParent(1, /*sync_every=*/2);
  child.Start();

  PsClient client(fabric, 0, 2);
  client.Push(std::vector<float>{6.0f}, ApplyMode::kAssign);
  EXPECT_EQ(client.Pull(), (std::vector<float>{6.0f}));
  EXPECT_EQ(root.Snapshot(), (std::vector<float>{0.0f}))
      << "first applied payload must not sync yet";
  // Second applied payload reaches the threshold: child (now 6) folds into
  // the root: root = (0+6)/2 = 3, child adopts 3.
  client.Push(std::vector<float>{6.0f}, ApplyMode::kAssign);
  EXPECT_EQ(client.Pull(), (std::vector<float>{3.0f}));
  EXPECT_EQ(root.Snapshot(), (std::vector<float>{3.0f}));
  child.Stop();
  root.Stop();
}

// Regression lock — a retry budget of 1 is one bounded attempt. The
// clients used to read budget <= 1 as "wait forever", so with faults on and
// fault.retry_budget = 1 the first dropped PS message hung the worker. A
// server rank that never replies stands in for the drop.
TEST(PsRetry, BudgetOfOneIsOneBoundedAttempt) {
  net::Fabric fabric(3);  // client 0; ranks 1 and 2 never serve
  const common::Stopwatch watch;
  PsClient single(fabric, 0, 1);
  single.ConfigureRetry(1, 0.02);
  EXPECT_FALSE(single.TryPull().has_value());
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedPsClient sharded(fabric, 0, 1, shards, /*dim=*/4);
    sharded.ConfigureRetry(1, 0.02);
    EXPECT_FALSE(sharded.TryPull().has_value()) << shards << " shard(s)";
  }
  EXPECT_LT(watch.Elapsed(), 1.0);
}

// The backoff doubles per attempt. A budget past 64 attempts must not shift
// a 64-bit one past its width, which is undefined (UBSan flags it).
TEST(PsRetry, BudgetPastSixtyFourAttemptsKeepsTheBackoffDefined) {
  net::Fabric fabric(3);  // client 0; ranks 1 and 2 never serve
  PsClient single(fabric, 0, 1);
  single.ConfigureRetry(66, 1e-300);
  EXPECT_FALSE(single.TryPull().has_value());
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedPsClient sharded(fabric, 0, 1, shards, /*dim=*/4);
    sharded.ConfigureRetry(66, 1e-300);
    EXPECT_FALSE(sharded.TryPull().has_value()) << shards << " shard(s)";
  }
}

TEST(PsRetry, ParentSyncWithBudgetOfOneSkipsAnAbsentParent) {
  // The PS-tree path of hierarchical RNA: a child whose parent never
  // answers skips the sync after one bounded attempt and still replies
  // with its local state.
  net::Fabric fabric(3);  // client 0, parent 1 (never serves), child 2
  ParameterServer child(fabric, 2, {0.0f});
  child.ConfigureParent(1, /*sync_every=*/1, /*retry_budget=*/1,
                        /*retry_timeout_s=*/0.02);
  child.Start();
  PsClient client(fabric, 0, 2);
  client.ConfigureRetry(1, 1.0);
  const common::Stopwatch watch;
  const auto replied =
      client.TryPushPull(std::vector<float>{8.0f}, ApplyMode::kAssign);
  EXPECT_LT(watch.Elapsed(), 1.0);
  ASSERT_TRUE(replied.has_value());
  EXPECT_EQ(*replied, (std::vector<float>{8.0f}));
  child.Stop();
}

}  // namespace
}  // namespace rna::ps
