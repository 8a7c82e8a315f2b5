// Tests for ONLINE elastic membership: incremental migration windows that
// overlap live client traffic, epoch-stamped staleness detection, the
// dual-write protocol, cancellation/resume, migration throttling, membership
// recovery after a full restart, and deterministic hinted-handoff drains.
//
// test_blob_rebalance.cpp covers the synchronous add_server/decommission
// wrappers; this file exercises the begin_* + Rebalancer step machinery the
// wrappers are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blob/client.hpp"
#include "blob/rebalance.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "persist/fault_file.hpp"
#include "client_agreement.hpp"

namespace bsc::blob {
namespace {

sim::ClusterSpec spec() {
  sim::ClusterSpec s;
  s.storage_nodes = 12;
  return s;
}

class OnlineRebalanceTest : public ::testing::Test {
 protected:
  OnlineRebalanceTest() : cluster_(spec()), store_(cluster_, StoreConfig{}) {}

  void preload(BlobClient& client, int n, std::size_t bytes,
               const char* fmt = "obj-%04d") {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          client.write(strfmt(fmt, i), 0, as_view(make_payload(i, 0, bytes))).ok())
          << i;
    }
  }

  sim::Cluster cluster_;
  BlobStore store_;
};

// The tentpole property: a server joins while clients keep writing, and
// every write the client saw acknowledged — before, during, or after the
// migration window — is readable with its final content from the new
// topology. Also asserts the ~K/N plan size and the dual-write window.
TEST_F(OnlineRebalanceTest, OnlineAddUnderLiveWorkloadLosesNoAckedWrite) {
  sim::SimAgent agent;
  BlobClient client(store_, &agent);
  ClientRegistryAgreement agree({&client});
  constexpr int kPreload = 150;
  constexpr std::size_t kBytes = 2048;
  preload(client, kPreload, kBytes);

  auto fresh = store_.begin_add_server(cluster_.compute_node(0));
  ASSERT_TRUE(fresh.ok());
  Rebalancer* rb = store_.rebalancer();
  ASSERT_NE(rb, nullptr);
  EXPECT_TRUE(store_.rebalance_active());

  // Consistent hashing bounds the plan: ~replication/N of the keys gain the
  // new node, nowhere near a full reshuffle.
  const std::uint64_t planned = rb->progress().keys_total;
  EXPECT_GT(planned, static_cast<std::uint64_t>(kPreload / 15));
  EXPECT_LT(planned, static_cast<std::uint64_t>(kPreload / 2));

  std::map<std::string, std::uint64_t> acked;  // key -> seed of last acked write
  for (int i = 0; i < kPreload; ++i) acked[strfmt("obj-%04d", i)] = i;

  // Live workload interleaved with migration batches: overwrites of
  // migrating keys, brand-new keys placed on the target ring, and a
  // remove+recreate churn on a still-pending key each round (the recreate
  // dual-applies to the pending owner, making the window observable).
  int round = 0;
  while (!rb->done()) {
    std::string churn_key;
    for (const auto& [k, seed] : acked) {
      if (!store_.placement_of(k).pending.empty()) {
        churn_key = k;
        break;
      }
    }
    if (!churn_key.empty()) {
      ASSERT_TRUE(client.remove(churn_key).ok()) << churn_key;
      const std::uint64_t seed = 9000 + round;
      ASSERT_TRUE(
          client.write(churn_key, 0, as_view(make_payload(seed, 0, kBytes))).ok());
      acked[churn_key] = seed;
    }
    for (int j = 0; j < 4; ++j) {
      const int idx = (round * 4 + j) % kPreload;
      const std::string key = strfmt("obj-%04d", idx);
      const std::uint64_t seed = 1000 + round * 4 + j;
      ASSERT_TRUE(client.write(key, 0, as_view(make_payload(seed, 0, kBytes))).ok());
      acked[key] = seed;
    }
    const std::string nk = strfmt("new-%04d", round);
    ASSERT_TRUE(client.write(nk, 0, as_view(make_payload(7000 + round, 0, kBytes))).ok());
    acked[nk] = 7000 + round;
    ASSERT_TRUE(rb->step(&agent).ok());
    ++round;
  }
  ASSERT_TRUE(rb->finalize(&agent).ok());
  EXPECT_TRUE(rb->finished());
  EXPECT_FALSE(store_.rebalance_active());
  EXPECT_EQ(rb->progress().keys_moved, planned);
  EXPECT_GT(client.counters().dual_writes.value(), 0u);
  agree.check({"rebalance.dual_writes"});

  // Zero acked writes lost: a fresh client (cold caches) must read every
  // acked key's last content off the post-change topology, and every
  // replica of every key must hold exactly that content.
  sim::SimAgent ra;
  BlobClient reader(store_, &ra);
  for (const auto& [key, seed] : acked) {
    auto r = reader.read(key, 0, kBytes);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(check_payload(seed, 0, as_view(r.value()))) << key;
    for (std::uint32_t n : store_.replicas_of(key)) {
      SimMicros svc = 0;
      auto copy = store_.server(n).read(key, 0, kBytes, &svc);
      ASSERT_TRUE(copy.ok()) << key << " missing on server " << n;
      EXPECT_TRUE(check_payload(seed, 0, as_view(copy.value().data)))
          << key << " stale on server " << n;
    }
  }
  EXPECT_GT(store_.server(fresh.value()).object_count(), 0u);
}

// Decommission through the incremental machinery: the subject drains fully
// and the finalize sweep digest-verifies every moved key against the
// draining source before the window closes.
TEST_F(OnlineRebalanceTest, DecommissionDrainsWithDigestVerification) {
  sim::SimAgent agent;
  BlobClient client(store_, &agent);
  constexpr int kObjects = 120;
  preload(client, kObjects, 1024, "d-%04d");

  std::uint32_t victim = 0;
  for (std::uint32_t i = 0; i < store_.server_count(); ++i) {
    if (store_.server(i).object_count() > 0) {
      victim = i;
      break;
    }
  }
  ASSERT_TRUE(store_.begin_decommission(victim).ok());
  Rebalancer* rb = store_.rebalancer();
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->kind(), Rebalancer::Kind::decommission);
  ASSERT_TRUE(rb->run_to_completion(&agent).ok());
  EXPECT_TRUE(rb->finished());
  EXPECT_FALSE(store_.in_ring(victim));
  EXPECT_EQ(store_.server(victim).object_count(), 0u);  // fully drained
  EXPECT_GT(rb->progress().digests_checked, 0u);
  EXPECT_GE(rb->progress().digests_checked, rb->progress().keys_moved);

  for (int i = 0; i < kObjects; ++i) {
    auto r = client.read(strfmt("d-%04d", i), 0, 1024);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << i;
  }
}

// A write whose cached placement is current skips the re-resolve under the
// stripes (BlobStore::placement_current: no window open, ring at the
// placement's epoch, no dual-write targets). One client keeps its
// placements cached and rewrites every key before a window opens, between
// every migration batch, before finalize and after it, for an add and then
// a decommission window. Every acked write must end on every replica of
// the final topology, and nowhere be shadowed by an older copy.
TEST_F(OnlineRebalanceTest, CachedPlacementWritesAcrossWindowOpenAndFinalize) {
  sim::SimAgent agent;
  BlobClient client(store_, &agent);
  constexpr int kKeys = 60;
  constexpr std::size_t kBytes = 1024;
  std::map<std::string, std::uint64_t> acked;  // key -> seed of last acked write
  std::uint64_t seed = 0;
  auto write_all = [&] {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = strfmt("pc-%04d", i);
      ++seed;
      ASSERT_TRUE(client.write(key, 0, as_view(make_payload(seed, 0, kBytes))).ok()) << key;
      acked[key] = seed;
    }
  };
  write_all();
  write_all();  // every placement now cached at the current epoch

  // Two keys per batch, so rewrites land between partial migrations: some
  // keys still pending, some already moved.
  const RebalanceConfig rcfg{.batch_keys = 2};
  auto run_window = [&](Rebalancer* rb) {
    ASSERT_NE(rb, nullptr);
    EXPECT_TRUE(store_.rebalance_active());
    write_all();  // placements cached before the window opened
    write_all();  // placements cached while it is open
    int steps = 0;
    while (!rb->done()) {
      ASSERT_TRUE(rb->step(&agent).ok());
      write_all();
      ++steps;
    }
    EXPECT_GT(steps, 1);
    ASSERT_TRUE(rb->finalize(&agent).ok());
    EXPECT_FALSE(store_.rebalance_active());
    write_all();  // placements cached before the cutover
    write_all();
  };
  ASSERT_TRUE(store_.begin_add_server(cluster_.compute_node(0), rcfg).ok());
  run_window(store_.rebalancer());
  std::uint32_t victim = 0;
  while (store_.server(victim).object_count() == 0) ++victim;
  ASSERT_TRUE(store_.begin_decommission(victim, rcfg).ok());
  run_window(store_.rebalancer());
  EXPECT_EQ(store_.server(victim).object_count(), 0u);

  sim::SimAgent ra;
  BlobClient reader(store_, &ra);
  for (const auto& [key, last] : acked) {
    auto r = reader.read(key, 0, kBytes);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(check_payload(last, 0, as_view(r.value()))) << key;
    for (std::uint32_t n : store_.replicas_of(key)) {
      SimMicros svc = 0;
      auto copy = store_.server(n).read(key, 0, kBytes, &svc);
      ASSERT_TRUE(copy.ok()) << key << " missing on server " << n;
      EXPECT_TRUE(check_payload(last, 0, as_view(copy.value().data)))
          << key << " stale on server " << n;
    }
  }
}

// A client that cached placements before a membership change must notice the
// stale epoch stamped on server replies, refresh, and land on the new
// topology — without the store telling it anything out of band.
TEST_F(OnlineRebalanceTest, StaleClientRefreshesPlacementFromEpochStamps) {
  sim::SimAgent agent;
  BlobClient client(store_, &agent);
  ClientRegistryAgreement agree({&client});
  constexpr int kObjects = 80;
  preload(client, kObjects, 512, "s-%04d");
  // Warm the client's placement cache.
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(client.stat(strfmt("s-%04d", i)).ok()) << i;
  }
  EXPECT_EQ(client.counters().stale_epoch_retries.value(), 0u);

  // Membership changes behind the client's back (a different actor).
  sim::SimAgent admin;
  store_.add_server(cluster_.compute_node(1), nullptr, &admin);

  // stat() answers from the client metadata cache with zero rounds, so the
  // data path is what carries the epoch stamps now: reads must hit servers,
  // notice the stale stamp, refresh, and land on the new topology.
  const std::uint64_t refreshes0 = client.counters().epoch_refreshes.value();
  for (int i = 0; i < kObjects; ++i) {
    auto r = client.read(strfmt("s-%04d", i), 0, 512);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << i;
  }
  EXPECT_GT(client.counters().epoch_refreshes.value(), refreshes0);
  EXPECT_GT(client.counters().stale_epoch_retries.value(), 0u);

  // Cached stats stay coherent across the refresh.
  for (int i = 0; i < kObjects; ++i) {
    auto s = client.stat(strfmt("s-%04d", i));
    ASSERT_TRUE(s.ok()) << i;
    EXPECT_EQ(s.value().size, 512u) << i;
  }
  agree.check({"client.epoch.refreshes", "client.epoch.stale_retries"});
}

// cancel() pauses mid-migration with the window open — every prefix of the
// migration is a correct state — and resume() + run_to_completion finishes.
TEST_F(OnlineRebalanceTest, CancelKeepsWindowOpenResumeFinishes) {
  sim::SimAgent agent;
  BlobClient client(store_, &agent);
  constexpr int kObjects = 100;
  preload(client, kObjects, 1024, "c-%04d");

  RebalanceConfig rcfg;
  rcfg.batch_keys = 4;  // several batches so a pause lands mid-plan
  ASSERT_TRUE(store_.begin_add_server(cluster_.compute_node(2), rcfg).ok());
  Rebalancer* rb = store_.rebalancer();
  ASSERT_TRUE(rb->step(&agent).ok());
  rb->cancel();
  EXPECT_TRUE(rb->cancelled());
  ASSERT_TRUE(rb->run_to_completion(&agent).ok());  // returns early, no cutover
  EXPECT_FALSE(rb->finished());
  EXPECT_TRUE(store_.rebalance_active());
  const std::uint64_t moved_at_pause = rb->progress().keys_moved;
  EXPECT_LT(moved_at_pause, rb->progress().keys_total);

  // The paused window serves reads and writes correctly.
  for (int i = 0; i < kObjects; ++i) {
    auto r = client.read(strfmt("c-%04d", i), 0, 1024);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << i;
  }
  ASSERT_TRUE(
      client.write("c-0000", 0, as_view(make_payload(42, 0, 1024))).ok());

  rb->resume();
  ASSERT_TRUE(rb->run_to_completion(&agent).ok());
  EXPECT_TRUE(rb->finished());
  EXPECT_FALSE(store_.rebalance_active());
  EXPECT_GE(rb->progress().keys_moved, moved_at_pause);

  auto r = client.read("c-0000", 0, 1024);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(check_payload(42, 0, as_view(r.value())));
}

void run_throttled_grow(std::uint64_t throttle_bytes_per_sec, SimMicros* elapsed,
                        std::uint64_t* bytes_moved) {
  sim::Cluster cluster(spec());
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(
        client.write(strfmt("t-%04d", i), 0, as_view(make_payload(i, 0, 4096))).ok());
  }
  RebalanceConfig rcfg;
  rcfg.batch_keys = 8;
  rcfg.throttle_bytes_per_sec = throttle_bytes_per_sec;
  ASSERT_TRUE(store.begin_add_server(cluster.compute_node(0), rcfg).ok());
  sim::SimAgent mig;  // migration traffic billed separately from the client
  Rebalancer* rb = store.rebalancer();
  ASSERT_TRUE(rb->run_to_completion(&mig).ok());
  ASSERT_TRUE(rb->finished());
  *elapsed = mig.now();
  *bytes_moved = rb->progress().bytes_moved;
}

// The throttle is a simulated-bandwidth cap: the same migration under a
// tight cap takes proportionally more simulated time.
TEST(OnlineRebalanceThrottle, ThrottleStretchesMigrationTime) {
  SimMicros fast_us = 0;
  SimMicros slow_us = 0;
  std::uint64_t fast_bytes = 0;
  std::uint64_t slow_bytes = 0;
  run_throttled_grow(0, &fast_us, &fast_bytes);
  if (::testing::Test::HasFatalFailure()) return;
  run_throttled_grow(64 * 1024, &slow_us, &slow_bytes);  // 64 KiB/s cap
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(fast_bytes, slow_bytes);  // identical plan, identical payload
  EXPECT_GT(fast_bytes, 0u);
  EXPECT_GT(slow_us, fast_us);
  // The cap dominates: moving B bytes at 64 KiB/s needs ~B/65536 seconds.
  const double floor_us = static_cast<double>(slow_bytes) / (64.0 * 1024.0) * 1e6;
  EXPECT_GT(static_cast<double>(slow_us), 0.5 * floor_us);
}

// A decommission must survive a full process restart: the persisted
// membership record keeps the removed server out of the ring and restores
// the epoch, so recovered servers stamp replies correctly.
TEST(MembershipRecovery, DecommissionSurvivesRestart) {
  persist::TempDir dir;
  sim::Cluster cluster(spec());
  constexpr std::uint32_t kVictim = 3;
  std::uint64_t epoch_after = 0;
  {
    BlobStore store(cluster, StoreConfig{});
    ASSERT_TRUE(store.enable_persistence(dir.path()).ok());
    sim::SimAgent agent;
    BlobClient client(store, &agent);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          client.write(strfmt("m-%04d", i), 0, as_view(make_payload(i, 0, 256))).ok());
    }
    ASSERT_TRUE(store.decommission_server(kVictim, nullptr, &agent).ok());
    EXPECT_FALSE(store.in_ring(kVictim));
    epoch_after = store.ring_epoch();
  }
  // "Restart": a fresh store over the same journal directories. Construction
  // naively puts every server back in the ring; recover_membership re-applies
  // the persisted removal and restores the epoch.
  BlobStore store2(cluster, StoreConfig{});
  EXPECT_TRUE(store2.in_ring(kVictim));  // pre-recovery: naive full ring
  ASSERT_TRUE(store2.enable_persistence(dir.path()).ok());
  ASSERT_TRUE(store2.recover_membership().ok());
  EXPECT_FALSE(store2.in_ring(kVictim));
  EXPECT_EQ(store2.ring_epoch(), epoch_after);
  // Every server is stamped with the recovered epoch (clients rely on it).
  for (std::uint32_t i = 0; i < store2.server_count(); ++i) {
    EXPECT_EQ(store2.server(i).ring_epoch(), epoch_after) << i;
  }
  // Idempotent: recovering again changes nothing.
  ASSERT_TRUE(store2.recover_membership().ok());
  EXPECT_EQ(store2.ring_epoch(), epoch_after);
}

// The rebalance.* observability series move with the subsystem and the
// epoch gauge tracks the ring.
TEST_F(OnlineRebalanceTest, RebalanceMetricsSeriesMove) {
  auto& reg = obs::MetricsRegistry::global();
  const auto before = reg.snapshot();

  sim::SimAgent agent;
  BlobClient client(store_, &agent);
  preload(client, 60, 1024, "g-%04d");
  BlobStore::RebalanceStats stats;
  store_.add_server(cluster_.compute_node(3), &stats, &agent);

  const auto delta = reg.snapshot().delta_since(before);
  EXPECT_EQ(delta.counters.at("rebalance.keys_moved"),
            store_.rebalancer()->progress().keys_moved);
  EXPECT_EQ(delta.counters.at("rebalance.bytes_moved"), stats.bytes_moved);
  EXPECT_GT(delta.counters.at("rebalance.batches"), 0u);
  EXPECT_EQ(reg.snapshot().gauges.at("rebalance.epoch"),
            static_cast<std::int64_t>(store_.ring_epoch()));
  EXPECT_EQ(reg.snapshot().gauges.at("rebalance.active"), 0);
  EXPECT_GT(delta.histogram_stats("rebalance.migration_us").count, 0u);
}

// --- deterministic hint drains (recover_server) ----------------------------

struct DrainOutcome {
  std::uint64_t object_count = 0;
  BlobStore::HintStats stats;
  // (key, version, payload head) for every key present on the recovered
  // server, in sorted key order.
  std::vector<std::tuple<std::string, Version, std::string>> held;

  bool operator==(const DrainOutcome& o) const {
    return object_count == o.object_count && stats.drained == o.stats.drained &&
           stats.removed == o.stats.removed && held == o.held;
  }
};

/// Build a quorum-mode store, knock server `kDown` out, write through the
/// outage so natural hints accrue, add `manual` hints in the given order,
/// then recover and capture the drained server's exact state.
void run_hint_drain(const std::vector<std::pair<std::uint32_t, int>>& manual,
                    DrainOutcome* out) {
  sim::Cluster cluster(spec());
  StoreConfig cfg;
  cfg.write_quorum = 2;  // hints are a quorum-mode mechanism
  BlobStore store(cluster, cfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  constexpr int kKeys = 60;
  constexpr std::uint32_t kDown = 2;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        client.write(strfmt("h-%04d", i), 0, as_view(make_payload(i, 0, 512))).ok());
  }
  store.fail_server(kDown);
  // Overwrites through the outage: keys replicated on the down server get
  // hinted on their primaries.
  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(
        client.write(strfmt("h-%04d", i), 0, as_view(make_payload(100 + i, 0, 512))).ok());
  }
  // Redundant manual hints from several coordinators, in caller order. The
  // drain must produce the same result regardless.
  for (const auto& [coord, idx] : manual) {
    (void)store.server(coord).add_hint(kDown, strfmt("h-%04d", idx));
  }
  BlobStore::HintStats stats;
  store.recover_server(kDown, &agent, &stats);
  out->object_count = store.server(kDown).object_count();
  out->stats = stats;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = strfmt("h-%04d", i);
    auto v = store.server(kDown).peek_version(key);
    if (!v.ok()) continue;
    SimMicros svc = 0;
    auto r = store.server(kDown).read(key, 0, 16, &svc);
    ASSERT_TRUE(r.ok()) << key;
    const auto& d = r.value().data;
    out->held.emplace_back(key, v.value(),
                           std::string(reinterpret_cast<const char*>(d.data()),
                                       std::min<std::size_t>(d.size(), 16)));
  }
}

// Satellite: recover_server drains the hint union in sorted key order, so
// the drained server's state is identical no matter which coordinators
// recorded the hints or in what order they were added.
TEST(HintDrainDeterminism, OutcomeIndependentOfHintInsertionOrder) {
  std::vector<std::pair<std::uint32_t, int>> fwd;
  for (int i = 0; i < 20; ++i) fwd.emplace_back(i % 3, i);
  std::vector<std::pair<std::uint32_t, int>> rev(fwd.rbegin(), fwd.rend());
  // Shift which coordinator records each hint, too.
  for (auto& [coord, idx] : rev) coord = (coord + 1) % 4;

  DrainOutcome a;
  DrainOutcome b;
  run_hint_drain(fwd, &a);
  if (::testing::Test::HasFatalFailure()) return;
  run_hint_drain(rev, &b);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(a.stats.drained, 0u);
  EXPECT_TRUE(a == b) << "hint drain outcome depends on insertion order: "
                      << a.object_count << " objects vs " << b.object_count;
}

}  // namespace
}  // namespace bsc::blob
