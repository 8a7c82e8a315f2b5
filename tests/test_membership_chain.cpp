// Property campaign for CONCURRENT membership changes: the epoch chain of
// overlapping migration windows (see DESIGN.md §6b and rebalance.hpp).
//
// The properties proved here, each against a reference store that applied
// the same deltas the boring way (serially, one synchronous window at a
// time):
//  * folding the epoch chain yields the same final placement — and
//    byte-identical reads — as applying the deltas sequentially, even when
//    the windows drain interleaved and finalize out of order;
//  * each epoch's plan stays within the weighted K/N consistent-hashing
//    bound (no reshuffle amplification from overlapping windows);
//  * once a decommission epoch finalizes, no key resolves to the
//    decommissioned node in ANY surviving epoch's fold — even epochs opened
//    before it that are still draining;
//  * abort of a single epoch in the chain restores exactly that delta: the
//    store afterwards is indistinguishable from one where that begin_* was
//    never called;
//  * a restart mid-chain reopens every persisted window, in order, and both
//    migrations complete against the recovered (holder-rebuilt) plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "blob/client.hpp"
#include "blob/rebalance.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "persist/fault_file.hpp"
#include "client_agreement.hpp"

namespace bsc::blob {
namespace {

sim::ClusterSpec spec() {
  sim::ClusterSpec s;
  s.storage_nodes = 12;
  return s;
}

void preload(BlobClient& client, int n, std::size_t bytes, const char* fmt) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        client.write(strfmt(fmt, i), 0, as_view(make_payload(i, 0, bytes))).ok())
        << i;
  }
}

// The acceptance-criterion property: two joiners overlap, their windows
// drain concurrently (interleaved with live writes) and finalize OUT OF
// ORDER, and the result — membership, per-key placement, ring epoch, and
// every byte of every acked write — is identical to the serialized schedule.
TEST(MembershipChain, OverlappedJoinsMatchSerializedSchedule) {
  constexpr int kKeys = 160;
  constexpr std::size_t kBytes = 1024;

  // Overlapped store: both windows open before either drains.
  sim::Cluster cluster(spec());
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  ClientRegistryAgreement agree({&client});
  preload(client, kKeys, kBytes, "o-%04d");
  if (::testing::Test::HasFatalFailure()) return;

  std::map<std::string, std::uint64_t> acked;  // key -> seed of last acked write
  for (int i = 0; i < kKeys; ++i) acked[strfmt("o-%04d", i)] = i;

  RebalanceConfig rcfg;
  rcfg.batch_keys = 8;  // several batches per window so the drains interleave
  auto j0 = store.begin_add_server(cluster.compute_node(0), rcfg);
  auto j1 = store.begin_add_server(cluster.compute_node(1), rcfg);
  ASSERT_TRUE(j0.ok());
  ASSERT_TRUE(j1.ok());
  EXPECT_EQ(store.migration_chain_depth(), 2u);
  ASSERT_EQ(store.rebalancer_count(), 2u);
  Rebalancer* rb0 = store.rebalancer_at(0);
  Rebalancer* rb1 = store.rebalancer_at(1);
  EXPECT_LT(rb0->epoch_at_open(), rb1->epoch_at_open());

  // Interleaved drain with a live workload riding on top. Each round picks a
  // key pending in BOTH windows (Placement::windows >= 2 — the fold unioning
  // dual-write targets across epochs) and remove+recreates it: the recreate
  // dual-applies to every pending owner of every epoch (a fresh create is
  // version-clean on targets the migration copy has not reached yet), which
  // is what ticks chain_dual_writes.
  bool overlap_seen = false;
  int round = 0;
  while (!rb0->done() || !rb1->done()) {
    std::string churn_key;
    for (const auto& [k, seed] : acked) {
      (void)seed;
      if (store.placement_of(k).windows >= 2) {
        churn_key = k;
        break;
      }
    }
    if (!churn_key.empty()) {
      overlap_seen = true;
      ASSERT_TRUE(client.remove(churn_key).ok()) << churn_key;
      const std::uint64_t seed = 5000 + round;
      ASSERT_TRUE(
          client.write(churn_key, 0, as_view(make_payload(seed, 0, kBytes))).ok());
      acked[churn_key] = seed;
    }
    if (!rb0->done()) ASSERT_TRUE(rb0->step(&agent).ok());
    if (!rb1->done()) ASSERT_TRUE(rb1->step(&agent).ok());
    for (int j = 0; j < 4; ++j) {
      const int idx = (round * 4 + j) % kKeys;
      const std::string key = strfmt("o-%04d", idx);
      const std::uint64_t seed = 1000 + round * 4 + j;
      ASSERT_TRUE(client.write(key, 0, as_view(make_payload(seed, 0, kBytes))).ok());
      acked[key] = seed;
    }
    ++round;
  }
  EXPECT_TRUE(overlap_seen) << "no key was ever pending in two epochs at once";
  // Out-of-order finalize: the NEWER epoch closes first.
  ASSERT_TRUE(rb1->finalize(&agent).ok());
  EXPECT_EQ(store.migration_chain_depth(), 1u);
  EXPECT_TRUE(store.rebalance_active());
  ASSERT_TRUE(rb0->finalize(&agent).ok());
  EXPECT_EQ(store.migration_chain_depth(), 0u);
  EXPECT_FALSE(store.rebalance_active());
  if (overlap_seen) {
    EXPECT_GT(client.counters().chain_dual_writes.value(), 0u);
  }
  agree.check({"rebalance.chain_dual_writes"});

  // Serialized reference: same joins one at a time, then the same final
  // write set (last-writer-per-key; intermediate overwrites don't survive
  // either schedule).
  sim::Cluster ref_cluster(spec());
  BlobStore ref(ref_cluster, StoreConfig{});
  sim::SimAgent ref_agent;
  BlobClient ref_client(ref, &ref_agent);
  preload(ref_client, kKeys, kBytes, "o-%04d");
  if (::testing::Test::HasFatalFailure()) return;
  ref.add_server(ref_cluster.compute_node(0), nullptr, &ref_agent);
  ref.add_server(ref_cluster.compute_node(1), nullptr, &ref_agent);
  for (const auto& [key, seed] : acked) {
    ASSERT_TRUE(
        ref_client.write(key, 0, as_view(make_payload(seed, 0, kBytes))).ok());
  }

  // Same membership, same epoch (two begins + two finalizes either way),
  // same placement for every key, byte-identical reads everywhere.
  EXPECT_EQ(store.ring_epoch(), ref.ring_epoch());
  EXPECT_EQ(store.server_count(), ref.server_count());
  sim::SimAgent ra;
  BlobClient reader(store, &ra);
  for (const auto& [key, seed] : acked) {
    EXPECT_EQ(store.replicas_of(key), ref.replicas_of(key)) << key;
    auto got = reader.read(key, 0, kBytes);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_TRUE(check_payload(seed, 0, as_view(got.value()))) << key;
    auto want = ref_client.read(key, 0, kBytes);
    ASSERT_TRUE(want.ok()) << key;
    EXPECT_EQ(got.value(), want.value()) << key;
    // Every replica holds exactly the final content: zero acked-write loss.
    for (std::uint32_t n : store.replicas_of(key)) {
      SimMicros svc = 0;
      auto copy = store.server(n).read(key, 0, kBytes, &svc);
      ASSERT_TRUE(copy.ok()) << key << " missing on server " << n;
      EXPECT_TRUE(check_payload(seed, 0, as_view(copy.value().data)))
          << key << " stale on server " << n;
    }
  }
  EXPECT_GT(store.server(j0.value()).object_count(), 0u);
  EXPECT_GT(store.server(j1.value()).object_count(), 0u);
}

// Each epoch's plan respects the weighted consistent-hashing bound: a joiner
// of weight w claims ~K*w/W_total of the keys, never anywhere near a
// reshuffle, and a heavier joiner claims proportionally more.
TEST(MembershipChain, PerEpochPlanWithinWeightedBound) {
  constexpr int kKeys = 200;
  sim::Cluster cluster(spec());
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  preload(client, kKeys, 512, "w-%04d");
  if (::testing::Test::HasFatalFailure()) return;

  ASSERT_TRUE(store.begin_add_server(cluster.compute_node(0), {}, 1.0).ok());
  ASSERT_TRUE(store.begin_add_server(cluster.compute_node(1), {}, 2.0).ok());
  ASSERT_EQ(store.rebalancer_count(), 2u);
  const std::uint64_t planned_w1 = store.rebalancer_at(0)->progress().keys_total;
  const std::uint64_t planned_w2 = store.rebalancer_at(1)->progress().keys_total;

  // Weight-1 joiner into 12 unit nodes: ~K/13 of keys per replica slot.
  EXPECT_GT(planned_w1, static_cast<std::uint64_t>(kKeys / 20));
  EXPECT_LT(planned_w1, static_cast<std::uint64_t>(kKeys / 2));
  // Weight-2 joiner claims roughly twice the share, still far from total.
  EXPECT_GT(planned_w2, planned_w1);
  EXPECT_LT(planned_w2, static_cast<std::uint64_t>(kKeys * 7 / 10));

  ASSERT_TRUE(store.rebalancer_at(0)->run_to_completion(&agent).ok());
  ASSERT_TRUE(store.rebalancer_at(0)->finished());
  ASSERT_TRUE(store.rebalancer_at(1)->run_to_completion(&agent).ok());
  EXPECT_FALSE(store.rebalance_active());
  for (int i = 0; i < kKeys; ++i) {
    auto r = client.read(strfmt("w-%04d", i), 0, 512);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << i;
  }
}

// A decommission epoch finalizing while an OLDER window is still draining
// must walk the leaving node out of every fold: the older epoch's pending
// entries whose authoritative (old) set contains the subject get
// force-completed, so after cutover no key — in any epoch — resolves to the
// decommissioned node, and the subject drains empty.
TEST(MembershipChain, DecommissionFinalizeForcesSubjectOutOfEveryFold) {
  constexpr int kKeys = 150;
  sim::Cluster cluster(spec());
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  preload(client, kKeys, 1024, "d-%04d");
  if (::testing::Test::HasFatalFailure()) return;

  RebalanceConfig rcfg;
  rcfg.batch_keys = 4;
  ASSERT_TRUE(store.begin_add_server(cluster.compute_node(0), rcfg).ok());
  std::uint32_t victim = 0;
  for (std::uint32_t i = 0; i < 12; ++i) {
    if (store.server(i).object_count() > 0) {
      victim = i;
      break;
    }
  }
  ASSERT_TRUE(store.begin_decommission(victim, rcfg).ok());
  EXPECT_EQ(store.migration_chain_depth(), 2u);
  // Double-decommission of the same subject is rejected while its window is
  // open (overlapping deltas on one node have no chain semantics).
  EXPECT_EQ(store.begin_decommission(victim).code(), Errc::busy);

  // Drive ONLY the decommission (the newer epoch) to completion: its
  // finalize must force-complete the older add-window's entries that still
  // treat the victim as authoritative.
  Rebalancer* shrink = store.rebalancer_at(1);
  ASSERT_EQ(shrink->kind(), Rebalancer::Kind::decommission);
  ASSERT_TRUE(shrink->run_to_completion(&agent).ok());
  ASSERT_TRUE(shrink->finished());

  EXPECT_FALSE(store.in_ring(victim));
  EXPECT_EQ(store.server(victim).object_count(), 0u);  // fully drained
  EXPECT_EQ(store.migration_chain_depth(), 1u);        // add window still open
  EXPECT_TRUE(store.rebalance_active());
  for (int i = 0; i < kKeys; ++i) {
    const Placement p = store.placement_of(strfmt("d-%04d", i));
    EXPECT_EQ(std::count(p.replicas.begin(), p.replicas.end(), victim), 0) << i;
    EXPECT_EQ(std::count(p.pending.begin(), p.pending.end(), victim), 0) << i;
  }

  // The surviving epoch finishes normally and every byte survives.
  Rebalancer* grow = store.rebalancer_at(0);
  ASSERT_TRUE(grow->run_to_completion(&agent).ok());
  EXPECT_FALSE(store.rebalance_active());
  for (int i = 0; i < kKeys; ++i) {
    auto r = client.read(strfmt("d-%04d", i), 0, 1024);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << i;
  }
}

// Acked-write-loss regression: a decommission finalize force-completes the
// OLDER windows' pending entries whose authoritative set contains the
// leaving node. When such an entry's migration target is DOWN, the copy can
// only be recorded as a volatile hint — the entry must NOT flip to migrated
// (the cutover + subject sweep would then delete the subject's copy, the
// only durable one), the finalize must return busy and leave the window
// open until the target recovers.
TEST(MembershipChain, DecommissionForceCompleteDefersToDownTarget) {
  constexpr std::size_t kBytes = 768;
  sim::Cluster cluster(spec());
  StoreConfig scfg;
  scfg.replication = 1;  // a key's ONLY durable copy can live on the subject
  BlobStore store(cluster, scfg);
  sim::SimAgent agent;
  BlobClient client(store, &agent);

  // Mirror the store's ring states (vnode placement depends only on id and
  // weight) to script the scenario deterministically.
  const std::uint32_t kInitial = 12;
  const std::uint32_t joiner = kInitial;  // index begin_add_server assigns
  HashRing base(scfg.vnodes_per_node);
  HashRing with_j(scfg.vnodes_per_node);
  for (std::uint32_t i = 0; i < kInitial; ++i) {
    base.add_node(i);
    with_j.add_node(i);
  }
  with_j.add_node(joiner);

  // Victim = current primary of some key the joiner will claim: that key's
  // add-window entry (old {victim} -> new {joiner}) is exactly what the
  // decommission finalize force-completes.
  std::uint32_t victim = 0;
  std::string moved_key;
  for (int i = 0; i < 200 && moved_key.empty(); ++i) {
    const std::string k = strfmt("f-%04d", i);
    if (with_j.locate(k, 1)[0] == joiner) {
      victim = base.locate(k, 1)[0];
      moved_key = k;
    }
  }
  ASSERT_FALSE(moved_key.empty());
  HashRing after_shrink(with_j);
  after_shrink.remove_node(victim);

  // Preload, skipping keys whose decommission move would TARGET the downed
  // joiner — those trip the shrink window's own verify sweep and would mask
  // the force-complete path this test is about.
  std::vector<std::pair<std::string, int>> written;
  for (int i = 0; i < 200; ++i) {
    const std::string k = strfmt("f-%04d", i);
    if (with_j.locate(k, 1)[0] == victim && after_shrink.locate(k, 1)[0] == joiner) {
      continue;
    }
    ASSERT_TRUE(client.write(k, 0, as_view(make_payload(i, 0, kBytes))).ok()) << k;
    written.emplace_back(k, i);
  }

  // Open the add window but do not drain it: every entry stays pending, then
  // the joiner goes down.
  auto j = store.begin_add_server(cluster.compute_node(0));
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j.value(), joiner);
  store.fail_server(joiner);

  ASSERT_TRUE(store.begin_decommission(victim).ok());
  Rebalancer* shrink = store.rebalancer_at(1);
  ASSERT_EQ(shrink->kind(), Rebalancer::Kind::decommission);

  // The shrink window drains its own plan fine (no entry targets the down
  // joiner, by construction) but finalize must refuse to cut over: the
  // force-completed entry could only hint its down target.
  auto st = shrink->run_to_completion(&agent);
  EXPECT_EQ(st.code(), Errc::busy);
  EXPECT_FALSE(shrink->finished());
  EXPECT_EQ(store.migration_chain_depth(), 2u);
  {
    // The subject's authoritative copy survived the refused cutover.
    SimMicros svc = 0;
    auto copy = store.server(victim).read(moved_key, 0, kBytes, &svc);
    ASSERT_TRUE(copy.ok()) << "subject's only copy of " << moved_key
                           << " was deleted under a down target";
  }

  // Recover the joiner (the hint drain installs the deferred copy); now the
  // cutover goes through and the rest of the chain completes.
  store.recover_server(joiner, &agent);
  ASSERT_TRUE(shrink->finalize(&agent).ok());
  ASSERT_TRUE(shrink->finished());
  EXPECT_FALSE(store.in_ring(victim));
  EXPECT_EQ(store.server(victim).object_count(), 0u);
  ASSERT_TRUE(store.rebalancer_at(0)->run_to_completion(&agent).ok());
  EXPECT_FALSE(store.rebalance_active());

  // Zero acked-write loss — the force-completed key included.
  for (const auto& [k, seed] : written) {
    auto r = client.read(k, 0, kBytes);
    ASSERT_TRUE(r.ok()) << k;
    EXPECT_TRUE(check_payload(seed, 0, as_view(r.value()))) << k;
  }
}

// abort() of one epoch mid-chain reverts exactly that delta: membership and
// per-key placement afterwards match a reference store where that begin_*
// never happened, the aborted joiner holds nothing, and the sibling epoch
// drains to completion untouched. Also exercises per-epoch cancel/resume on
// the sibling while the abort runs.
TEST(MembershipChain, AbortRestoresExactlyThatDelta) {
  constexpr int kKeys = 120;
  constexpr std::size_t kBytes = 1024;
  sim::Cluster cluster(spec());
  BlobStore store(cluster, StoreConfig{});
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  preload(client, kKeys, kBytes, "a-%04d");
  if (::testing::Test::HasFatalFailure()) return;

  RebalanceConfig rcfg;
  rcfg.batch_keys = 4;
  auto j0 = store.begin_add_server(cluster.compute_node(0), rcfg);
  auto j1 = store.begin_add_server(cluster.compute_node(1), rcfg);
  ASSERT_TRUE(j0.ok());
  ASSERT_TRUE(j1.ok());
  Rebalancer* rb0 = store.rebalancer_at(0);
  Rebalancer* rb1 = store.rebalancer_at(1);
  ASSERT_TRUE(rb0->step(&agent).ok());  // partial progress on the epoch we abort
  ASSERT_TRUE(rb1->step(&agent).ok());

  rb1->cancel();  // sibling paused (quiescent) while the abort rewinds
  ASSERT_TRUE(rb0->abort(&agent).ok());
  EXPECT_TRUE(rb0->finished());
  EXPECT_FALSE(store.in_ring(j0.value()));
  EXPECT_EQ(store.server(j0.value()).object_count(), 0u);  // copies dropped
  EXPECT_TRUE(store.in_ring(j1.value()));
  EXPECT_EQ(store.migration_chain_depth(), 1u);
  // A second abort on the closed window is rejected.
  EXPECT_EQ(rb0->abort(&agent).code(), Errc::busy);

  rb1->resume();
  ASSERT_TRUE(rb1->run_to_completion(&agent).ok());
  EXPECT_FALSE(store.rebalance_active());

  // Reference: the aborted joiner never joins (it is registered but ringless
  // so server indices line up), the surviving joiner joins serially.
  sim::Cluster ref_cluster(spec());
  BlobStore ref(ref_cluster, StoreConfig{});
  sim::SimAgent ref_agent;
  BlobClient ref_client(ref, &ref_agent);
  preload(ref_client, kKeys, kBytes, "a-%04d");
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(ref.reattach_server(ref_cluster.compute_node(0)), j0.value());
  ref.add_server(ref_cluster.compute_node(1), nullptr, &ref_agent);

  for (int i = 0; i < kKeys; ++i) {
    const std::string key = strfmt("a-%04d", i);
    EXPECT_EQ(store.replicas_of(key), ref.replicas_of(key)) << key;
    auto r = client.read(key, 0, kBytes);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << key;
  }
}

// Satellite regression: recover_membership() used to assume at most one open
// window. A restart with a CHAIN persisted must reopen every unfinalized
// epoch, in order, with holder-rebuilt plans — and both migrations must then
// run to completion on the recovered store.
TEST(MembershipChainRecovery, RestartMidChainReopensAllWindows) {
  constexpr int kKeys = 100;
  constexpr std::size_t kBytes = 1024;
  persist::TempDir dir;
  sim::Cluster cluster(spec());
  std::uint64_t epoch_mid_chain = 0;
  std::uint32_t idx0 = 0;
  std::uint32_t idx1 = 0;
  {
    BlobStore store(cluster, StoreConfig{});
    ASSERT_TRUE(store.enable_persistence(dir.path()).ok());
    sim::SimAgent agent;
    BlobClient client(store, &agent);
    preload(client, kKeys, kBytes, "r-%04d");
    if (::testing::Test::HasFatalFailure()) return;
    RebalanceConfig rcfg;
    rcfg.batch_keys = 4;
    rcfg.throttle_bytes_per_sec = 3 << 20;  // must survive the restart below
    RebalanceConfig rcfg2;
    rcfg2.batch_keys = 7;
    auto j0 = store.begin_add_server(cluster.compute_node(0), rcfg);
    auto j1 = store.begin_add_server(cluster.compute_node(1), rcfg2, 1.5);
    ASSERT_TRUE(j0.ok());
    ASSERT_TRUE(j1.ok());
    idx0 = j0.value();
    idx1 = j1.value();
    // Partial drains on both epochs, then the process dies.
    ASSERT_TRUE(store.rebalancer_at(0)->step(&agent).ok());
    ASSERT_TRUE(store.rebalancer_at(1)->step(&agent).ok());
    epoch_mid_chain = store.ring_epoch();
  }

  BlobStore store2(cluster, StoreConfig{});
  ASSERT_TRUE(store2.enable_persistence(dir.path()).ok());
  // "Process restart": every server's engine comes back from its journal
  // (enable_persistence only ATTACHES the log; restart() replays it).
  for (std::uint32_t i = 0; i < store2.server_count(); ++i) {
    ASSERT_TRUE(store2.server(i).restart(nullptr).ok()) << i;
  }
  // The chain's subjects have no server objects yet — recovery refuses until
  // they are reattached (rather than silently dropping the windows).
  EXPECT_FALSE(store2.recover_membership().ok());
  ASSERT_EQ(store2.reattach_server(cluster.compute_node(0)), idx0);
  ASSERT_EQ(store2.reattach_server(cluster.compute_node(1)), idx1);
  ASSERT_TRUE(store2.server(idx0).restart(nullptr).ok());
  ASSERT_TRUE(store2.server(idx1).restart(nullptr).ok());
  ASSERT_TRUE(store2.recover_membership().ok());

  // Both windows reopened, in order, with the chain live again.
  EXPECT_EQ(store2.migration_chain_depth(), 2u);
  ASSERT_EQ(store2.rebalancer_count(), 2u);
  EXPECT_TRUE(store2.rebalance_active());
  EXPECT_TRUE(store2.in_ring(idx0));
  EXPECT_TRUE(store2.in_ring(idx1));
  EXPECT_EQ(store2.ring_epoch(), epoch_mid_chain);
  EXPECT_LT(store2.rebalancer_at(0)->window_id(), store2.rebalancer_at(1)->window_id());
  EXPECT_EQ(store2.rebalancer_at(1)->kind(), Rebalancer::Kind::add);
  // The drain config rides in the membership record: a resumed drain keeps
  // the operator's per-window batch size and bandwidth cap instead of
  // restarting unthrottled with the defaults.
  EXPECT_EQ(store2.rebalancer_at(0)->config().batch_keys, 4u);
  EXPECT_EQ(store2.rebalancer_at(0)->config().throttle_bytes_per_sec,
            static_cast<std::uint64_t>(3 << 20));
  EXPECT_EQ(store2.rebalancer_at(1)->config().batch_keys, 7u);
  EXPECT_EQ(store2.rebalancer_at(1)->config().throttle_bytes_per_sec, 0u);

  // Both recovered migrations complete; nothing acked before the restart is
  // lost anywhere in the final topology.
  sim::SimAgent agent2;
  ASSERT_TRUE(store2.rebalancer_at(0)->run_to_completion(&agent2).ok());
  ASSERT_TRUE(store2.rebalancer_at(1)->run_to_completion(&agent2).ok());
  EXPECT_FALSE(store2.rebalance_active());
  EXPECT_EQ(store2.migration_chain_depth(), 0u);
  BlobClient reader(store2, &agent2);
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = strfmt("r-%04d", i);
    auto r = reader.read(key, 0, kBytes);
    ASSERT_TRUE(r.ok()) << key;
    EXPECT_TRUE(check_payload(i, 0, as_view(r.value()))) << key;
    for (std::uint32_t n : store2.replicas_of(key)) {
      SimMicros svc = 0;
      auto copy = store2.server(n).read(key, 0, kBytes, &svc);
      ASSERT_TRUE(copy.ok()) << key << " missing on server " << n;
      EXPECT_TRUE(check_payload(i, 0, as_view(copy.value().data)))
          << key << " stale on server " << n;
    }
  }
  // Idempotent once the chain is gone: recovering again changes nothing.
  ASSERT_TRUE(store2.recover_membership().ok());
  EXPECT_EQ(store2.migration_chain_depth(), 0u);
}

}  // namespace
}  // namespace bsc::blob
