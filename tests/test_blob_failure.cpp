// Failure-injection tests for the blob store: read failover, degraded
// writes, recovery resync, and all-replicas-down behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "blob/client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "rpc/fault.hpp"
#include "client_agreement.hpp"

namespace bsc::blob {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  sim::Cluster cluster_;
  BlobStore store_{cluster_};
  sim::SimAgent agent_;
  BlobClient client_{store_, &agent_};
};

TEST_F(FailureTest, ReadFailsOverToReplica) {
  ClientRegistryAgreement agree({&client_});
  const Bytes data = make_payload(1, 0, 8192);
  ASSERT_TRUE(client_.write("k", 0, as_view(data)).ok());
  const auto replicas = store_.replicas_of("k");
  ASSERT_EQ(replicas.size(), 3u);
  store_.fail_server(replicas.front());
  auto r = client_.read("k", 0, 8192);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(data)));
  EXPECT_EQ(client_.size("k").value(), 8192u);
  EXPECT_TRUE(client_.exists("k"));
  store_.recover_server(replicas.front());
  agree.check({"client.read.calls", "client.size.calls", "client.stat.calls"});
}

TEST_F(FailureTest, AllReplicasDownFailsCleanly) {
  ASSERT_TRUE(client_.write("k", 0, as_view(to_bytes("x"))).ok());
  for (std::uint32_t n : store_.replicas_of("k")) store_.fail_server(n);
  EXPECT_EQ(client_.read("k", 0, 1).code(), Errc::unavailable);
  EXPECT_EQ(client_.write("k", 0, as_view(to_bytes("y"))).code(), Errc::unavailable);
  EXPECT_EQ(client_.size("k").code(), Errc::unavailable);
  EXPECT_EQ(client_.truncate("k", 0).code(), Errc::unavailable);
  EXPECT_EQ(client_.remove("k").code(), Errc::unavailable);
  for (std::uint32_t n : store_.replicas_of("k")) store_.recover_server(n);
  // The failed mutations were atomically absent: the original content is
  // intact on every replica.
  auto r = client_.read("k", 0, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(to_bytes("x"))));
}

TEST_F(FailureTest, DegradedWriteThenResyncConverges) {
  const auto replicas = store_.replicas_of("deg");
  ASSERT_TRUE(client_.write("deg", 0, as_view(make_payload(2, 0, 4096))).ok());

  // One replica dies; further writes proceed degraded.
  const std::uint32_t victim = replicas.back();
  store_.fail_server(victim);
  const Bytes update = make_payload(3, 0, 4096);
  ASSERT_TRUE(client_.write("deg", 0, as_view(update)).ok());
  ASSERT_TRUE(client_.write("deg", 4096, as_view(update)).ok());

  // The down replica is stale.
  {
    SimMicros svc = 0;
    auto stale = store_.server(victim).read("deg", 0, 4096, &svc);
    ASSERT_TRUE(stale.ok());
    EXPECT_FALSE(equal(as_view(stale.value().data), as_view(update)));
  }

  // Recover + resync: every replica byte-identical again.
  store_.recover_server(victim);
  const std::uint64_t repaired = store_.resync_server(victim, &agent_);
  EXPECT_GE(repaired, 1u);
  for (std::uint32_t n : replicas) {
    SimMicros svc = 0;
    auto r = store_.server(n).read("deg", 0, 8192, &svc);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(subview(as_view(r.value().data), 0, 4096), as_view(update)))
        << "replica " << n;
    EXPECT_EQ(store_.server(n).stat("deg", &svc).value().size, 8192u) << "replica " << n;
  }
}

TEST_F(FailureTest, ResyncRepairsRemovalsToo) {
  ClientRegistryAgreement agree({&client_});
  ASSERT_TRUE(client_.write("gone", 0, as_view(to_bytes("payload"))).ok());
  const auto replicas = store_.replicas_of("gone");
  const std::uint32_t victim = replicas.back();
  store_.fail_server(victim);
  ASSERT_TRUE(client_.remove("gone").ok());  // degraded removal
  store_.recover_server(victim);
  // The victim still holds a ghost copy...
  SimMicros svc = 0;
  EXPECT_TRUE(store_.server(victim).read("gone", 0, 7, &svc).ok());
  // ...which would resurrect the key through scan(); resync's deletion
  // pass drops it.
  EXPECT_GE(store_.resync_server(victim, &agent_), 1u);
  EXPECT_FALSE(store_.server(victim).stat("gone", &svc).ok());
  EXPECT_FALSE(client_.exists("gone"));
  auto scan = client_.scan("gone");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().empty());
  agree.check({"client.quorum.degraded_writes", "client.scan.calls"});
}

TEST_F(FailureTest, ScanSkipsDownServers) {
  ClientRegistryAgreement agree({&client_});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(client_.create(strfmt("s-%02d", i)).ok());
  }
  store_.fail_server(0);
  auto scan = client_.scan();
  ASSERT_TRUE(scan.ok());
  // Replication 3 over 8 nodes: every key still visible on >=2 live nodes.
  EXPECT_EQ(scan.value().size(), 30u);
  store_.recover_server(0);
  agree.check({"client.create.calls", "client.scan.calls"});
}

TEST_F(FailureTest, TransactionsFailWhenKeyUnavailable) {
  ClientRegistryAgreement agree({&client_});
  ASSERT_TRUE(client_.create("txk").ok());
  for (std::uint32_t n : store_.replicas_of("txk")) store_.fail_server(n);
  auto txn = client_.begin_transaction();
  txn.write("txk", 0, as_view(to_bytes("x")));
  EXPECT_EQ(txn.commit().code(), Errc::unavailable);
  for (std::uint32_t n : store_.replicas_of("txk")) store_.recover_server(n);
  agree.check({"client.txn.calls"});
}

TEST_F(FailureTest, FreshestIsTheFirstLiveHolderOfTheHighestVersion) {
  ASSERT_TRUE(client_.write("fr", 0, as_view(to_bytes("v"))).ok());
  const auto reps = store_.replicas_of("fr");
  ASSERT_EQ(reps.size(), 3u);
  auto set_version = [&](std::uint32_t r, Version v) {
    auto lk = store_.server(r).lock_exclusive();
    ASSERT_TRUE(store_.server(r).force_version("fr", v).ok());
  };
  auto expect_freshest = [&](const std::vector<std::uint32_t>& candidates,
                             std::optional<std::uint32_t> exclude,
                             std::uint32_t index, Version version) {
    const auto best = store_.freshest("fr", candidates, exclude);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->index, index);
    EXPECT_EQ(best->version, version);
  };

  // The highest version wins wherever it sits.
  set_version(reps[0], 5);
  set_version(reps[1], 7);
  set_version(reps[2], 6);
  expect_freshest(reps, std::nullopt, reps[1], 7);

  // Ties go to the first replica in candidate order.
  set_version(reps[2], 7);
  expect_freshest(reps, std::nullopt, reps[1], 7);
  expect_freshest({reps[2], reps[1], reps[0]}, std::nullopt, reps[2], 7);

  // Down replicas and the excluded target are skipped.
  store_.fail_server(reps[1]);
  expect_freshest(reps, std::nullopt, reps[2], 7);
  expect_freshest(reps, reps[2], reps[0], 5);

  // No live holder: empty.
  store_.fail_server(reps[0]);
  EXPECT_FALSE(store_.freshest("fr", reps, reps[2]).has_value());
  EXPECT_FALSE(store_.freshest("never-written", reps).has_value());
  store_.recover_server(reps[0]);
  store_.recover_server(reps[1]);
}

TEST_F(FailureTest, InjectedOutageSurfacesUnavailableNotHang) {
  ClientRegistryAgreement agree({&client_});
  ASSERT_TRUE(client_.write("out", 0, as_view(to_bytes("payload"))).ok());
  const std::uint64_t cb = store_.config().chunk_bytes;
  ASSERT_TRUE(client_.write("out-striped", 0, as_view(make_payload(41, 0, 2 * cb))).ok());
  rpc::FaultInjector inj(7);
  store_.transport().set_fault_injector(&inj);
  rpc::FaultPlan dead;
  dead.outages.push_back({0, std::numeric_limits<SimMicros>::max()});
  for (std::uint32_t n = 0; n < store_.server_count(); ++n) {
    inj.set_plan(store_.server(n).node().id(), dead);
  }
  // Every replica is unreachable (though none is marked down): the client
  // must exhaust retries and fail over cleanly, never hang or apply half.
  EXPECT_EQ(client_.read("out", 0, 7).code(), Errc::unavailable);
  EXPECT_EQ(client_.write("out", 0, as_view(to_bytes("zzzzzzz"))).code(),
            Errc::unavailable);
  EXPECT_GT(client_.counters().retries, 0u);
  // A striped read's batch envelope earns one whole-envelope re-send before
  // it degrades to per-chunk legs, which fail the same way.
  EXPECT_EQ(client_.read("out-striped", 0, 2 * cb).code(), Errc::unavailable);
  EXPECT_GT(client_.counters().batch_retries, 0u);
  store_.transport().set_fault_injector(nullptr);
  auto r = client_.read("out", 0, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(to_bytes("payload"))));
  agree.check({"client.retries", "client.failovers", "client.batch.retries"});
}

TEST_F(FailureTest, EveryInjectedAttemptIsOneCallOrOneCallFailure) {
  // Drops, transient errors and a dead node under mixed single-chunk and
  // striped client traffic: every attempt the transport admits ends as one
  // delivered call or one call failure, and drops show up as timeouts.
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  rpc::FaultInjector inj(11);
  store_.transport().set_fault_injector(&inj);
  for (std::uint32_t n = 0; n < store_.server_count(); ++n) {
    rpc::FaultPlan plan;
    plan.drop_probability = 0.05;
    plan.error_probability = 0.05;
    if (n == 0) plan.outages.push_back({0, std::numeric_limits<SimMicros>::max()});
    inj.set_plan(store_.server(n).node().id(), plan);
  }
  const std::uint64_t cb = store_.config().chunk_bytes;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::string key = "attempt-" + std::to_string(i);
    const std::size_t len = i % 4 == 0 ? 2 * cb : 512;
    (void)client_.write(key, 0, as_view(make_payload(i, 0, len)));
    (void)client_.read(key, 0, len);
  }
  store_.transport().set_fault_injector(nullptr);

  const auto c = obs::MetricsRegistry::global().snapshot().delta_since(before).counters;
  EXPECT_GT(c.at("rpc.timeouts"), 0u);
  EXPECT_GT(c.at("rpc.attempt.errors"), 0u);
  EXPECT_GT(c.at("rpc.attempt.outages"), 0u);
  EXPECT_GT(c.at("rpc.calls"), 0u);
  EXPECT_EQ(c.at("rpc.attempts"), c.at("rpc.calls") + c.at("rpc.call_failures"));
}

struct TimedWrite {
  SimMicros completion = 0;
  std::uint64_t retries = 0;
  std::uint64_t dual_writes = 0;
};

/// One 4 KiB write of `key` by a fresh client, with `server` behind an
/// outage over [0, outage_until) (none when outage_until is 0).
TimedWrite write_with_outage(BlobStore& store, const std::string& key,
                             std::uint32_t server, SimMicros outage_until) {
  sim::SimAgent agent;
  BlobClient client(store, &agent);
  rpc::FaultInjector inj(3);
  if (outage_until > 0) {
    rpc::FaultPlan plan;
    plan.outages.push_back({0, outage_until});
    inj.set_plan(store.server(server).node().id(), plan);
    store.transport().set_fault_injector(&inj);
  }
  EXPECT_TRUE(client.write(key, 0, as_view(make_payload(5, 0, 4096))).ok());
  store.transport().set_fault_injector(nullptr);
  return {agent.now(), client.counters().retries.value(),
          client.counters().dual_writes.value()};
}

/// `run(outage_until)` makes the same write on a fresh store. With an
/// outage up to the clean write's completion, the first attempt of the leg
/// to the outaged server is refused and a retry at least one backoff later
/// is delivered: the write completes when that retry's leg does, not when a
/// first-attempt leg would have.
template <typename Run>
void expect_retried_leg_delays_write(Run run) {
  const TimedWrite clean = run(0);
  ASSERT_EQ(clean.retries, 0u);
  const TimedWrite faulted = run(clean.completion);
  ASSERT_GT(faulted.retries, 0u);
  EXPECT_GE(faulted.completion, clean.completion + StoreConfig{}.retry.backoff_base_us);
}

TEST(ForwardLegTest, RetriedForwardIsChargedFromItsDeliveredAttempt) {
  expect_retried_leg_delays_write([](SimMicros outage_until) {
    sim::Cluster cluster;
    BlobStore store(cluster);
    return write_with_outage(store, "fwd", store.replicas_of("fwd")[1], outage_until);
  });
}

TEST(ForwardLegTest, RetriedMirrorIsChargedFromItsDeliveredAttempt) {
  // The dual-write mirror leg of a migration window. The key is one the
  // window moves to the joining server, removed inside the window so the
  // write recreates it and the joining server, holding no copy yet, takes
  // the mirror.
  expect_retried_leg_delays_write([](SimMicros outage_until) {
    sim::Cluster cluster;
    BlobStore store(cluster);
    sim::SimAgent setup_agent;
    BlobClient setup(store, &setup_agent);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          setup.write(strfmt("mirror-%d", i), 0, as_view(make_payload(i, 0, 512))).ok());
    }
    const auto fresh = store.begin_add_server(cluster.compute_node(0));
    EXPECT_TRUE(fresh.ok());
    std::string key;
    for (int i = 0; i < 40 && key.empty(); ++i) {
      const std::string k = strfmt("mirror-%d", i);
      const auto pending = store.placement_of(k).pending;
      if (std::find(pending.begin(), pending.end(), fresh.value()) != pending.end()) key = k;
    }
    EXPECT_FALSE(key.empty());
    EXPECT_TRUE(setup.remove(key).ok());
    const TimedWrite w = write_with_outage(store, key, fresh.value(), outage_until);
    EXPECT_EQ(w.dual_writes, 1u);
    return w;
  });
}

class QuorumTest : public ::testing::Test {
 protected:
  static StoreConfig quorum_config() {
    StoreConfig cfg;
    cfg.write_quorum = 2;  // W=2, R = 3-2+1 = 2 over replication 3
    return cfg;
  }
  sim::Cluster cluster_;
  BlobStore store_{cluster_, quorum_config()};
  sim::SimAgent agent_;
  BlobClient client_{store_, &agent_};
};

TEST_F(QuorumTest, DegradedWriteHintsAndDrainsOnRecover) {
  ClientRegistryAgreement agree({&client_});
  const Bytes v1 = make_payload(10, 0, 4096);
  const Bytes v2 = make_payload(11, 0, 4096);
  ASSERT_TRUE(client_.write("q", 0, as_view(v1)).ok());
  const auto replicas = store_.replicas_of("q");
  ASSERT_EQ(replicas.size(), 3u);

  // One replica dies; W=2 still reachable — the write succeeds degraded and
  // the miss is recorded as a hint on the acting primary.
  const std::uint32_t victim = replicas.back();
  store_.fail_server(victim);
  ASSERT_TRUE(client_.write("q", 0, as_view(v2)).ok());
  EXPECT_EQ(client_.counters().quorum_degraded_writes, 1u);
  EXPECT_EQ(client_.counters().hints_written, 1u);
  EXPECT_EQ(store_.server(replicas.front()).hint_count(), 1u);

  // Quorum read arbitrates by version and returns the acked update even
  // though one replica never saw it.
  auto r = client_.read("q", 0, 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(as_view(r.value()), as_view(v2)));

  // Recovery drains the hint: the victim gets an exact copy (bytes AND
  // version), after which a scrub finds zero divergence.
  BlobStore::HintStats hs;
  store_.recover_server(victim, &agent_, &hs);
  EXPECT_EQ(hs.drained, 1u);
  EXPECT_EQ(store_.server(replicas.front()).hint_count(), 0u);
  for (std::uint32_t n : replicas) {
    SimMicros svc = 0;
    auto copy = store_.server(n).read("q", 0, 4096, &svc);
    ASSERT_TRUE(copy.ok());
    EXPECT_TRUE(equal(as_view(copy.value().data), as_view(v2))) << "replica " << n;
  }
  const auto report = store_.scrub(/*repair=*/false, &agent_);
  EXPECT_EQ(report.divergent_replicas, 0u);
  agree.check({"client.quorum.degraded_writes", "client.hints.written"});
}

TEST_F(QuorumTest, HintsReplayBeforeResyncDigestComparison) {
  ASSERT_TRUE(client_.write("hr", 0, as_view(make_payload(20, 0, 2048))).ok());
  const auto replicas = store_.replicas_of("hr");
  const std::uint32_t victim = replicas.back();
  store_.fail_server(victim);
  ASSERT_TRUE(client_.write("hr", 0, as_view(make_payload(21, 0, 2048))).ok());
  ASSERT_EQ(client_.counters().hints_written, 1u);

  // recover_server drains the hint; by the time resync runs its digest
  // comparison the copy is already identical — nothing left to copy.
  BlobStore::HintStats hs;
  store_.recover_server(victim, &agent_, &hs);
  ASSERT_EQ(hs.drained, 1u);
  BlobStore::ResyncStats rs;
  (void)store_.resync_server(victim, &agent_, &rs);
  EXPECT_EQ(rs.copied, 0u);
  EXPECT_GE(rs.skipped_identical, 1u);
}

TEST_F(QuorumTest, HintMustNotResurrectRemovedBlob) {
  ASSERT_TRUE(client_.write("zombie", 0, as_view(make_payload(30, 0, 1024))).ok());
  const auto replicas = store_.replicas_of("zombie");
  const std::uint32_t victim = replicas.back();
  store_.fail_server(victim);
  // Miss an update (hint recorded), then remove the blob entirely. The
  // removal reaches every live replica; the hint now points at a dead key.
  ASSERT_TRUE(client_.write("zombie", 0, as_view(make_payload(31, 0, 1024))).ok());
  ASSERT_TRUE(client_.remove("zombie").ok());

  BlobStore::HintStats hs;
  store_.recover_server(victim, &agent_, &hs);
  // Draining found no live holder: the victim's stale copy is dropped, not
  // spread — a hint must never resurrect a removed blob.
  EXPECT_EQ(hs.drained, 0u);
  EXPECT_EQ(hs.removed, 1u);
  EXPECT_FALSE(client_.exists("zombie"));
  auto scan = client_.scan("zombie");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().empty());
}

TEST_F(QuorumTest, GroupLegHintsEveryMissBeforeJudgingQuorum) {
  // A striped write whose chunks a < b share their acting primary P, so both
  // travel in P's batch group: a is replicated on {P, X, Y}, b on {P, X, Z}.
  // With X and Y down, a misses quorum and fails the write, but b was
  // already applied at P (and Z): X's miss on b must still be hinted.
  const std::uint64_t cb = store_.config().chunk_bytes;
  std::string key;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  for (int n = 0; n < 1000 && key.empty(); ++n) {
    const std::string k = "group-hint-" + std::to_string(n);
    for (std::uint64_t i = 1; i < 6 && key.empty(); ++i) {
      const auto ra = store_.replicas_of(chunk_engine_key(k, i));
      for (std::uint64_t j = i + 1; j <= 6 && key.empty(); ++j) {
        const auto rb = store_.replicas_of(chunk_engine_key(k, j));
        if (rb.front() != ra.front()) continue;
        const auto in_b = [&](std::uint32_t r) {
          return std::find(rb.begin(), rb.end(), r) != rb.end();
        };
        if (in_b(ra[1]) == in_b(ra[2])) continue;  // want exactly one shared
        const std::uint32_t shared = in_b(ra[1]) ? ra[1] : ra[2];
        const std::uint32_t only_a = in_b(ra[1]) ? ra[2] : ra[1];
        // The base leg (chunk 0) must still reach W = 2 replicas.
        const auto base = store_.replicas_of(k);
        const auto in_base = [&](std::uint32_t r) {
          return std::find(base.begin(), base.end(), r) != base.end();
        };
        if (in_base(shared) && in_base(only_a)) continue;
        key = k;
        a = i;
        b = j;
        x = shared;
        y = only_a;
      }
    }
  }
  ASSERT_FALSE(key.empty());
  const std::uint32_t p = store_.replicas_of(chunk_engine_key(key, a)).front();

  ClientRegistryAgreement agree({&client_});
  store_.fail_server(x);
  store_.fail_server(y);
  const Bytes data = make_payload(40, 0, (b - a + 1) * cb);
  EXPECT_FALSE(client_.write(key, a * cb, as_view(data)).ok());
  const auto hinted = store_.server(p).take_hints_for(x);
  EXPECT_NE(std::find(hinted.begin(), hinted.end(), chunk_engine_key(key, b)), hinted.end())
      << "X's miss on chunk " << b << " was never hinted";
  agree.check({"client.hints.written"});
  store_.recover_server(x);
  store_.recover_server(y);
}

TEST_F(QuorumTest, LaggingReplicaSkippedAndOutversionedByLaterWrites) {
  // A replica that is up but behind: the fault injector drops every forward
  // to it during one striped write, so it misses that write's base leg
  // (chunk 0, a single-key leg) and its chunk-1 sub (a batch group leg).
  // Later fault-free writes of both shapes must skip it on version mismatch
  // and leave it hinted, continue the version above the freshest replica,
  // and keep quorum reads returning the latest bytes.
  const std::uint64_t cb = store_.config().chunk_bytes;
  std::string key;
  for (int n = 0; n < 1000 && key.empty(); ++n) {
    const std::string k = "lag-" + std::to_string(n);
    // The lagging node is the second replica of both keys, so every quorum
    // read (R = 2) has to arbitrate against its stale copy.
    if (store_.replicas_of(k)[1] == store_.replicas_of(chunk_engine_key(k, 1))[1]) key = k;
  }
  ASSERT_FALSE(key.empty());
  const std::string c1 = chunk_engine_key(key, 1);
  const std::uint32_t lag = store_.replicas_of(key)[1];

  // Versions on every replica of `ekey`: the fresh ones at `fresh`, the
  // lagging one at `stale`.
  auto expect_versions = [&](const std::string& ekey, Version fresh, Version stale) {
    for (std::uint32_t n : store_.replicas_of(ekey)) {
      EXPECT_EQ(store_.server(n).peek_version(ekey).value_or(0), n == lag ? stale : fresh)
          << ekey << " on node " << n;
    }
  };
  Bytes want = make_payload(50, 0, cb + 4096);
  auto expect_latest = [&] {
    auto r = client_.read(key, 0, want.size());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(as_view(r.value()), as_view(want)));
  };

  ClientRegistryAgreement agree({&client_});
  ASSERT_TRUE(client_.write(key, 0, as_view(want)).ok());
  expect_versions(key, 2, 2);  // write + grow
  expect_versions(c1, 1, 1);

  rpc::FaultInjector inj(5);
  rpc::FaultPlan drop_all;
  drop_all.drop_probability = 1.0;
  inj.set_plan(store_.server(lag).node().id(), drop_all);
  store_.transport().set_fault_injector(&inj);
  want = make_payload(51, 0, cb + 4096);
  ASSERT_TRUE(client_.write(key, 0, as_view(want)).ok());
  store_.transport().set_fault_injector(nullptr);
  EXPECT_EQ(client_.counters().hints_written, 2u);
  EXPECT_EQ(client_.counters().quorum_degraded_writes, 2u);
  expect_versions(key, 4, 2);
  expect_versions(c1, 2, 1);
  expect_latest();

  // Fault-free single-chunk write: the lagging replica is reachable but
  // skipped; its pending hint for the key is already there.
  const Bytes head = make_payload(52, 0, 4096);
  ASSERT_TRUE(client_.write(key, 0, as_view(head)).ok());
  std::copy(head.begin(), head.end(), want.begin());
  EXPECT_EQ(client_.counters().hints_written, 2u);
  EXPECT_EQ(client_.counters().quorum_degraded_writes, 3u);
  expect_versions(key, 5, 2);
  expect_latest();

  // Fault-free striped write: the base leg and the chunk-1 group leg both
  // skip it.
  want = make_payload(53, 0, cb + 4096);
  ASSERT_TRUE(client_.write(key, 0, as_view(want)).ok());
  EXPECT_EQ(client_.counters().hints_written, 2u);
  EXPECT_EQ(client_.counters().quorum_degraded_writes, 5u);
  expect_versions(key, 7, 2);
  expect_versions(c1, 3, 1);
  expect_latest();

  std::uint64_t pending = 0;
  for (std::uint32_t n = 0; n < store_.server_count(); ++n) {
    pending += store_.server(n).hint_count();
  }
  EXPECT_EQ(pending, 2u);
  agree.check({"client.quorum.degraded_writes", "client.hints.written"});
}

TEST_F(FailureTest, ResyncWithNothingToDoIsZero) {
  ASSERT_TRUE(client_.write("healthy", 0, as_view(to_bytes("x"))).ok());
  // No failure happened: resync finds content already equal but still
  // recopies conservatively only for keys placed on that server.
  const auto replicas = store_.replicas_of("healthy");
  const std::uint32_t other = (replicas.front() + 1) % 8 == replicas.front()
                                  ? replicas.front()
                                  : 0;
  (void)other;
  // A server that hosts nothing repairs nothing.
  std::uint32_t empty_server = 0;
  bool found = false;
  for (std::uint32_t n = 0; n < 8 && !found; ++n) {
    if (std::find(replicas.begin(), replicas.end(), n) == replicas.end()) {
      empty_server = n;
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(store_.resync_server(empty_server, &agent_), 0u);
}

}  // namespace
}  // namespace bsc::blob
